package eval

import (
	"context"
	"fmt"
	"math"
	"strings"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/report"
	"elfetch/internal/workload"
)

// Experiment is one artifact of the paper's evaluation as data: the cells
// it measures and how their results render. Sweep and ablation knobs are
// plain fields of a cell's pipeline.Config, so figures, tables, sweeps and
// ablations all run through the same grid dispatch and get the same
// parallelism, result cache, persistent store and fleet.
type Experiment struct {
	// Name is the registry key: elfbench's -exp value, elfd's job kind
	// and the grid's trace span name.
	Name string
	// Cells lists the measurements in order, with Warmup and Measure
	// left zero: RunExperiment stamps Params' run lengths onto each.
	Cells []Cell
	// Table renders the complete results, where Results[i] measures
	// Cells[i]. Sweep cells share a config name, so renderers that need
	// them read results by position rather than by (workload, config).
	Table func(Results) *report.Table
}

// experiments is the registry, in presentation order. Callers must not
// modify it.
var experiments = []Experiment{
	figure6(), figure7(), figure8(), figure9(),
	tableBTB(), ablations(), sweepFAQ(), sweepFrontDepth(),
}

// ExperimentNames lists the registered experiments in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.Name
	}
	return names
}

// LookupExperiment returns the registered experiment called name. Its
// Cells are shared with the registry and must not be modified.
func LookupExperiment(name string) (Experiment, error) {
	for _, x := range experiments {
		if x.Name == name {
			return x, nil
		}
	}
	return Experiment{}, fmt.Errorf("eval: unknown experiment %q (want %s)",
		name, strings.Join(ExperimentNames(), ", "))
}

// RunExperiment measures every cell of the named experiment at p's run
// lengths through the grid dispatch (p.Runner, or in this process when it
// is nil) and renders the results as the experiment's table.
func RunExperiment(ctx context.Context, name string, p Params) (*report.Table, Results, error) {
	x, err := LookupExperiment(name)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]Cell, len(x.Cells))
	for i, c := range x.Cells {
		c.Warmup, c.Measure = p.Warmup, p.Measure
		cells[i] = c
	}
	res, err := runCells(ctx, cells, p)
	if err != nil {
		return nil, nil, err
	}
	return x.Table(res), res, nil
}

// grid lists the cross product of workloads × configs, workloads outer.
func grid(names []string, cfgs ...pipeline.Config) []Cell {
	cells := make([]Cell, 0, len(names)*len(cfgs))
	for _, n := range names {
		for _, c := range cfgs {
			cells = append(cells, Cell{Workload: n, Config: c})
		}
	}
	return cells
}

// figure6 is "Performance of No Decoupled Fetcher (NoDCF) relative to
// baseline DCF", with branch MPKI on the secondary axis.
func figure6() Experiment {
	names := workload.FigureSet()
	base := pipeline.DefaultConfig()
	return Experiment{
		Name:  "figure-6",
		Cells: grid(names, base, base.NoDCF()),
		Table: func(res Results) *report.Table {
			t := report.New("Figure 6: NoDCF IPC relative to DCF (and branch MPKI)",
				"workload", "NoDCF/DCF", "MPKI")
			for _, n := range names {
				nodcf, _ := res.Get(n, "NoDCF")
				dcf, _ := res.Get(n, "DCF")
				t.Add(n, report.F(nodcf.IPC/dcf.IPC), report.F1(dcf.MPKI))
			}
			return t
		},
	}
}

// figure7 is "Performance improvement of L-ELF and different variants of
// U-ELF with respect to DCF".
func figure7() Experiment {
	names := workload.FigureSet()
	base := pipeline.DefaultConfig()
	return Experiment{
		Name: "figure-7",
		Cells: grid(names,
			base,
			base.WithVariant(core.LELF),
			base.WithVariant(core.RETELF),
			base.WithVariant(core.INDELF),
			base.WithVariant(core.CONDELF)),
		Table: func(res Results) *report.Table {
			t := report.New("Figure 7: L/RET/IND/COND-ELF IPC relative to DCF (and branch MPKI)",
				"workload", "L-ELF", "RET-ELF", "IND-ELF", "COND-ELF", "MPKI")
			for _, n := range names {
				dcf, _ := res.Get(n, "DCF")
				rel := func(cfg string) string {
					r, _ := res.Get(n, cfg)
					return report.F(r.IPC / dcf.IPC)
				}
				t.Add(n,
					rel("L-ELF"), rel("RET-ELF"), rel("IND-ELF"), rel("COND-ELF"),
					report.F1(dcf.MPKI))
			}
			return t
		},
	}
}

// figure8 is "Performance improvement of L-ELF and U-ELF, as well as
// average number of instructions fetched during a run in coupled mode".
func figure8() Experiment {
	names := workload.FigureSet()
	base := pipeline.DefaultConfig()
	return Experiment{
		Name:  "figure-8",
		Cells: grid(names, base, base.WithVariant(core.LELF), base.WithVariant(core.UELF)),
		Table: func(res Results) *report.Table {
			t := report.New("Figure 8: L-ELF and U-ELF IPC relative to DCF, avg coupled insts per period",
				"workload", "L-ELF", "U-ELF", "L-cpl/prd", "U-cpl/prd")
			for _, n := range names {
				dcf, _ := res.Get(n, "DCF")
				lelf, _ := res.Get(n, "L-ELF")
				uelf, _ := res.Get(n, "U-ELF")
				t.Add(n,
					report.F(lelf.IPC/dcf.IPC), report.F(uelf.IPC/dcf.IPC),
					report.F1(lelf.AvgCoupled), report.F1(uelf.AvgCoupled))
			}
			return t
		},
	}
}

// figure9 is "Speedup (geomean) of NoDCF, L-ELF, U-ELF relative to the
// baseline DCF configuration", per suite and overall.
func figure9() Experiment {
	var names []string
	for _, e := range workload.All() {
		names = append(names, e.Name)
	}
	base := pipeline.DefaultConfig()
	return Experiment{
		Name:  "figure-9",
		Cells: grid(names, base, base.NoDCF(), base.WithVariant(core.LELF), base.WithVariant(core.UELF)),
		Table: func(res Results) *report.Table {
			t := report.New("Figure 9: geomean IPC relative to DCF, per suite",
				"suite", "NoDCF", "L-ELF", "U-ELF")
			addRow := func(label string, entries []*workload.Entry) {
				rel := func(cfg string) float64 {
					prod, n := 1.0, 0
					for _, e := range entries {
						d, _ := res.Get(e.Name, "DCF")
						if d.IPC <= 0 {
							continue
						}
						r, _ := res.Get(e.Name, cfg)
						prod *= r.IPC / d.IPC
						n++
					}
					if n == 0 {
						return math.NaN()
					}
					return math.Pow(prod, 1/float64(n))
				}
				t.Add(label, report.F(rel("NoDCF")), report.F(rel("L-ELF")), report.F(rel("U-ELF")))
			}
			for _, s := range workload.Suites() {
				addRow(s, workload.Suite(s))
			}
			addRow("Geomean", workload.All())
			return t
		},
	}
}

// tableBTB reports per-workload BTB hit rates under the DCF baseline — the
// statistic behind the paper's Section VI-A server-1 discussion ("28.3%,
// 48.5% and 70.6% hit rate for L0/L1/L2BTB in subtest 1").
func tableBTB() Experiment {
	names := workload.FigureSet()
	return Experiment{
		Name:  "btb",
		Cells: grid(names, pipeline.DefaultConfig()),
		Table: func(res Results) *report.Table {
			t := report.New("BTB hit rates under DCF (% of lookups served per level)",
				"workload", "L0", "L1", "L2", "L1I miss")
			for i, n := range names {
				r := res[i].Result
				t.Add(n, report.Pct(r.BTBHit[0]), report.Pct(r.BTBHit[1]), report.Pct(r.BTBHit[2]),
					report.Pct(r.L1IMiss))
			}
			return t
		},
	}
}

// ablations runs every design-choice ablation DESIGN.md §6 calls out and
// reports the IPC ratio of choice-on vs choice-off on the workload where
// the mechanism matters. Each ablation is two cells: on, then off.
func ablations() Experiment {
	base := pipeline.DefaultConfig()
	uelf := base.WithVariant(core.UELF)
	cond := base.WithVariant(core.CONDELF)
	mk := func(c pipeline.Config, f func(*pipeline.Config)) pipeline.Config {
		f(&c)
		return c
	}
	cases := []struct {
		name, wl, section string
		on, off           pipeline.Config
	}{
		{"late-bound checkpoints", "641.leela_s", "IV-D1",
			uelf, mk(uelf, func(c *pipeline.Config) { c.Ckpt = pipeline.CkptROBHeadWait })},
		{"COND saturation filter", "620.omnetpp_s", "VI-B",
			cond, mk(cond, func(c *pipeline.Config) { c.SatFilter = false })},
		{"FAQ instruction prefetch", "server1_subtest_1", "VI-A",
			base, mk(base, func(c *pipeline.Config) { c.FAQPrefetch = false })},
		{"L0 BTB", "437.leslie3d", "III-B2",
			base, mk(base, func(c *pipeline.Config) { c.BTB.L0Entries = 0 })},
		{"interleave cross-fetch", "437.leslie3d", "VI-A",
			base, mk(base, func(c *pipeline.Config) { c.InterleaveFetch = false })},
		{"coupled update-all policy", "641.leela_s", "IV-D3",
			cond, mk(cond, func(c *pipeline.Config) { c.CoupledUpdateAll = false })},
		{"Boomerang predecode", "server1_subtest_1", "VI-C",
			mk(base, func(c *pipeline.Config) { c.Boomerang = true }), base},
		{"coupled zero-bubble", "641.leela_s", "IV-E",
			mk(uelf, func(c *pipeline.Config) { c.CoupledZeroBubble = true }), uelf},
		{"COND confidence filter", "620.omnetpp_s", "VII",
			mk(cond, func(c *pipeline.Config) { c.CondConfidence = true }), cond},
	}
	var cells []Cell
	for _, a := range cases {
		cells = append(cells, Cell{Workload: a.wl, Config: a.on}, Cell{Workload: a.wl, Config: a.off})
	}
	return Experiment{
		Name:  "ablate",
		Cells: cells,
		Table: func(res Results) *report.Table {
			t := report.New("Ablations: design choice on/off IPC ratios",
				"ablation", "workload", "on/off", "section")
			for i, a := range cases {
				on, off := res[2*i].Result, res[2*i+1].Result
				t.Add(a.name, a.wl, report.F(on.IPC/off.IPC), a.section)
			}
			t.Note("(on/off > 1 means the design choice pays off on that workload)")
			return t
		},
	}
}

// sweepFAQ measures the DCF's sensitivity to decoupling depth (FAQ
// capacity): deeper queues let branch prediction run further ahead,
// feeding the prefetcher and absorbing fetch stalls — until the returns
// saturate. (Reinman et al. [5] study exactly this trade-off.)
func sweepFAQ() Experiment {
	const name = "server1_subtest_1"
	sizes := []int{4, 8, 16, 32, 64}
	var cells []Cell
	for _, s := range sizes {
		cfg := pipeline.DefaultConfig()
		cfg.FAQSize = s
		cells = append(cells, Cell{Workload: name, Config: cfg})
	}
	return Experiment{
		Name:  "sweep-faq",
		Cells: cells,
		Table: func(res Results) *report.Table {
			t := report.New("DCF IPC vs FAQ depth on "+name, "faq", "IPC", "prefetches")
			for i, s := range sizes {
				r := res[i].Result
				t.Add(report.I(s), report.F(r.IPC), report.I(r.Prefetches))
			}
			return t
		},
	}
}

// sweepFrontDepth measures how ELF's benefit scales with the decoupled
// front-end's depth (BP1→FE stages) — the paper's Section III-C point via
// Borch et al.'s "loose loops sink chips" [15]: the Decode→BP1 loop's cost,
// and therefore ELF's recoverable latency, grows with the number of cycles
// between BP1 and Decode. Cells run depth-major, then workload, then DCF
// before U-ELF.
func sweepFrontDepth() Experiment {
	depths := []int{2, 3, 4, 5, 6}
	names := []string{"641.leela_s", "620.omnetpp_s", "401.bzip2"}
	var cells []Cell
	for _, d := range depths {
		base := pipeline.DefaultConfig()
		base.BPredToFetch = d
		cells = append(cells, grid(names, base, base.WithVariant(core.UELF))...)
	}
	return Experiment{
		Name:  "sweep-depth",
		Cells: cells,
		Table: func(res Results) *report.Table {
			t := report.New(fmt.Sprintf("ELF gain vs front depth (geomean U-ELF/DCF over %v)", names),
				"depth", "DCF IPC*", "U-ELF IPC*", "U/DCF")
			per := 2 * len(names)
			for i, d := range depths {
				prodD, prodU := 1.0, 1.0
				for j := range names {
					prodD *= res[i*per+2*j].Result.IPC
					prodU *= res[i*per+2*j+1].Result.IPC
				}
				gd := math.Pow(prodD, 1/float64(len(names)))
				gu := math.Pow(prodU, 1/float64(len(names)))
				t.Add(report.I(d), report.F(gd), report.F(gu), report.F(gu/gd))
			}
			t.Note("(* geomean IPC over the subset)")
			return t
		},
	}
}
