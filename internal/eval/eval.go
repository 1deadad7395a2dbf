// Package eval regenerates the paper's evaluation section: the per-figure
// experiment runners and table formatters behind cmd/elfbench, cmd/elfd and
// the root-level benchmarks (DESIGN.md §4 maps each figure to its runner).
//
// Every runner takes a context.Context and returns an error: cancelling the
// context aborts in-flight simulations within a few thousand simulated
// cycles (pipeline.Machine.RunContext's poll interval), which is what lets
// the elfd server cancel jobs when clients abort.
package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"elfetch/internal/btb"
	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/report"
	"elfetch/internal/uop"
	"elfetch/internal/workload"
)

// Params controls run lengths. The paper uses 100M-instruction SimPoints;
// the defaults here are laptop-scale and configurable from the CLI/server.
type Params struct {
	// Warmup instructions before counters reset.
	Warmup uint64
	// Measure instructions counted after warmup.
	Measure uint64
	// Parallel workers (0 = GOMAXPROCS).
	Parallel int
	// Probe, when non-nil, is attached to every machine after warmup so
	// measurement-window latency/occupancy distributions land in its
	// observers (see NewProbe for the registry-backed construction). It is
	// deliberately invisible to JSON so cache keys derived from Params are
	// unaffected. Observers must be safe for concurrent use when runs are
	// parallel (obs histograms are).
	Probe *pipeline.Probe `json:"-"`
	// Runner, when non-nil, dispatches matrix cells through an execution
	// backend (see internal/exec: Local wraps a scheduler worker pool and
	// result cache, Fleet shards cells across remote elfd workers); nil
	// measures each cell in this process. Like Probe it is invisible to
	// JSON so cache keys derived from Params are unaffected. Grids address
	// workloads by name, so every entry must be registered.
	Runner CellRunner `json:"-"`
}

// DefaultParams is a laptop-scale default.
func DefaultParams() Params {
	return Params{Warmup: 200_000, Measure: 800_000}
}

// MaxRunInsts bounds warmup+measure per run. It exists so a remote caller
// cannot tie up an elfd worker for hours with one request; raise it if you
// really are reproducing 100M-instruction SimPoints.
const MaxRunInsts = 1_000_000_000

// Validate rejects parameter sets no runner can honour.
func (p Params) Validate() error {
	if p.Measure == 0 {
		return fmt.Errorf("eval: Measure must be positive")
	}
	if p.Warmup+p.Measure > MaxRunInsts {
		return fmt.Errorf("eval: Warmup+Measure %d exceeds the %d-instruction budget",
			p.Warmup+p.Measure, uint64(MaxRunInsts))
	}
	if p.Parallel < 0 {
		return fmt.Errorf("eval: negative Parallel")
	}
	return nil
}

// workers resolves the worker count.
func (p Params) workers() int {
	if p.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallel
}

// Result is one (workload, configuration) measurement.
type Result struct {
	Workload string `json:"workload"`
	Suite    string `json:"suite"`
	Config   string `json:"config"`

	IPC        float64    `json:"ipc"`
	MPKI       float64    `json:"mpki"`
	AvgCoupled float64    `json:"avgCoupled"` // avg insts per coupled period (Figure 8)
	BTBHit     [3]float64 `json:"btbHit"`
	L1IMiss    float64    `json:"l1iMiss"`
	RAWFlushes uint64     `json:"rawFlushes"`
	Resteers   uint64     `json:"resteers"`
	WrongPath  uint64     `json:"wrongPath"`
	Prefetches uint64     `json:"prefetches"`
	Committed  uint64     `json:"committed"`
	Cycles     uint64     `json:"cycles"`
}

// RunOne measures one workload under one configuration. It returns early
// with ctx.Err() when the context is cancelled mid-run.
func RunOne(ctx context.Context, e *workload.Entry, cfg pipeline.Config, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	m, err := pipeline.New(cfg, e.Program())
	if err != nil {
		return Result{}, err
	}
	if p.Warmup > 0 {
		if _, err := m.RunContext(ctx, p.Warmup); err != nil {
			return Result{}, err
		}
		m.ResetStats()
	}
	if p.Probe != nil {
		m.AttachProbe(p.Probe)
	}
	st, err := m.RunContext(ctx, p.Measure)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(e, cfg, m, st), nil
}

// resultFrom assembles a Result from a finished measurement run.
func resultFrom(e *workload.Entry, cfg pipeline.Config, m *pipeline.Machine, st *pipeline.Stats) Result {
	bs := m.BTBStats()
	r := Result{
		Workload:   e.Name,
		Suite:      e.Suite,
		Config:     cfg.Name(),
		IPC:        st.IPC(),
		MPKI:       st.BranchMPKI(),
		AvgCoupled: m.ELF().AvgCoupledInsts(),
		L1IMiss:    m.Hierarchy().L1I.MissRate(),
		RAWFlushes: st.Flushes[uop.FlushMemOrder],
		Resteers:   st.DecodeResteers,
		WrongPath:  st.WrongPathFetched,
		Prefetches: st.PrefetchIssued,
		Committed:  st.Committed,
		Cycles:     st.Cycles,
	}
	for l := btb.L0; l <= btb.L2; l++ {
		r.BTBHit[l] = bs.HitRate(l)
	}
	return r
}

// inProcess is the runner a grid uses when Params.Runner is nil: it
// measures each cell in this process, attaching probe after warmup.
type inProcess struct{ probe *pipeline.Probe }

func (r inProcess) Run(ctx context.Context, c Cell) (Result, error) {
	return RunCell(ctx, c, r.probe)
}

// MatrixResults evaluates the cross product of workloads × configs and
// returns an ordered result set (workloads outer, configs inner — the
// order given). p.workers() goroutines dispatch the cells through
// p.Runner, or measure them in this process when it is nil.
//
// Partial-results contract: a cell failure cancels the cells still
// running, but every cell that already completed is returned alongside a
// joined error naming each failed cell; when the caller's context is
// cancelled mid-grid, the completed prefix is returned with ctx.Err()
// folded into the joined error. Callers that only care about
// success can keep treating a non-nil error as fatal; callers that want
// completed work (elfd's figure cache, long fleet runs) can consume the
// partial Results.
func MatrixResults(ctx context.Context, entries []*workload.Entry, cfgs []pipeline.Config, p Params) (Results, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	runner := p.Runner
	if runner == nil {
		runner = inProcess{probe: p.Probe}
	}
	cells := make([]Cell, 0, len(entries)*len(cfgs))
	for _, e := range entries {
		for _, c := range cfgs {
			cells = append(cells, Cell{Workload: e.Name, Config: c, Warmup: p.Warmup, Measure: p.Measure})
		}
	}
	n := len(cells)
	var (
		jobs    = make(chan int) // cell indices
		results = make([]Result, n)
		cellErr = make([]error, n)
		done    = make([]bool, n)
		wg      sync.WaitGroup
	)
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs { // keep draining after cancel so the feeder never blocks
				r, err := runner.Run(ctx, cells[i])
				if err != nil {
					cellErr[i] = err
					cancel()
					continue
				}
				results[i] = r
				done[i] = true
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := make(Results, 0, n)
	var errs []error
	for i, cell := range cells {
		switch {
		case done[i]:
			out = append(out, CellResult{Cell: cell, Result: results[i]})
		case cellErr[i] != nil && !errors.Is(cellErr[i], context.Canceled):
			errs = append(errs, fmt.Errorf("cell %s/%s: %w", cell.Workload, cell.Config.Name(), cellErr[i]))
		}
	}
	if err := parent.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) == 0 && len(out) < n {
		// Cells were cancelled by a sibling's abort without a reportable
		// cause of their own; never let an incomplete grid look complete.
		errs = append(errs, context.Canceled)
	}
	return out, errors.Join(errs...)
}

func figureEntries() ([]*workload.Entry, error) {
	var out []*workload.Entry
	for _, name := range workload.FigureSet() {
		e, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Figure6Table builds "Performance of No Decoupled Fetcher (NoDCF)
// relative to baseline DCF", with branch MPKI on the secondary axis.
func Figure6Table(ctx context.Context, p Params) (*report.Table, Results, error) {
	entries, err := figureEntries()
	if err != nil {
		return nil, nil, err
	}
	base := pipeline.DefaultConfig()
	res, err := MatrixResults(ctx, entries, []pipeline.Config{base, base.NoDCF()}, p)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 6: NoDCF IPC relative to DCF (and branch MPKI)",
		"workload", "NoDCF/DCF", "MPKI")
	for _, e := range entries {
		nodcf, _ := res.Get(e.Name, "NoDCF")
		dcf, _ := res.Get(e.Name, "DCF")
		t.Add(e.Name, report.F(nodcf.IPC/dcf.IPC), report.F1(dcf.MPKI))
	}
	return t, res, nil
}

// Figure7Table builds "Performance improvement of L-ELF and different
// variants of U-ELF with respect to DCF".
func Figure7Table(ctx context.Context, p Params) (*report.Table, Results, error) {
	entries, err := figureEntries()
	if err != nil {
		return nil, nil, err
	}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{
		base,
		base.WithVariant(core.LELF),
		base.WithVariant(core.RETELF),
		base.WithVariant(core.INDELF),
		base.WithVariant(core.CONDELF),
	}
	res, err := MatrixResults(ctx, entries, cfgs, p)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 7: L/RET/IND/COND-ELF IPC relative to DCF (and branch MPKI)",
		"workload", "L-ELF", "RET-ELF", "IND-ELF", "COND-ELF", "MPKI")
	for _, e := range entries {
		dcf, _ := res.Get(e.Name, "DCF")
		rel := func(cfg string) string {
			r, _ := res.Get(e.Name, cfg)
			return report.F(r.IPC / dcf.IPC)
		}
		t.Add(e.Name,
			rel("L-ELF"), rel("RET-ELF"), rel("IND-ELF"), rel("COND-ELF"),
			report.F1(dcf.MPKI))
	}
	return t, res, nil
}

// Figure8Table builds "Performance improvement of L-ELF and U-ELF, as well
// as average number of instructions fetched during a run in coupled mode".
func Figure8Table(ctx context.Context, p Params) (*report.Table, Results, error) {
	entries, err := figureEntries()
	if err != nil {
		return nil, nil, err
	}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{base, base.WithVariant(core.LELF), base.WithVariant(core.UELF)}
	res, err := MatrixResults(ctx, entries, cfgs, p)
	if err != nil {
		return nil, nil, err
	}
	t := report.New("Figure 8: L-ELF and U-ELF IPC relative to DCF, avg coupled insts per period",
		"workload", "L-ELF", "U-ELF", "L-cpl/prd", "U-cpl/prd")
	for _, e := range entries {
		dcf, _ := res.Get(e.Name, "DCF")
		lelf, _ := res.Get(e.Name, "L-ELF")
		uelf, _ := res.Get(e.Name, "U-ELF")
		t.Add(e.Name,
			report.F(lelf.IPC/dcf.IPC), report.F(uelf.IPC/dcf.IPC),
			report.F1(lelf.AvgCoupled), report.F1(uelf.AvgCoupled))
	}
	return t, res, nil
}

// Figure9Table builds "Speedup (geomean) of NoDCF, L-ELF, U-ELF relative to
// the baseline DCF configuration", per suite and overall.
func Figure9Table(ctx context.Context, p Params) (*report.Table, Results, error) {
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{base, base.NoDCF(), base.WithVariant(core.LELF), base.WithVariant(core.UELF)}
	res, err := MatrixResults(ctx, workload.All(), cfgs, p)
	if err != nil {
		return nil, nil, err
	}

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
	return t, res, nil
}

// FigureTable dispatches to the figure builders by number (6–9) — the
// single entry point behind elfd's /v1/figures/{n} and elfbench's -fig.
func FigureTable(ctx context.Context, n int, p Params) (*report.Table, Results, error) {
	switch n {
	case 6:
		return Figure6Table(ctx, p)
	case 7:
		return Figure7Table(ctx, p)
	case 8:
		return Figure8Table(ctx, p)
	case 9:
		return Figure9Table(ctx, p)
	}
	return nil, nil, fmt.Errorf("eval: unknown figure %d (want 6-9)", n)
}

// Table1 writes the workload registry (the Table I substitution).
func Table1(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table I: workloads (synthetic proxies; see DESIGN.md §2)\n"); err != nil {
		return err
	}
	suites := workload.Suites()
	sort.Strings(suites)
	for _, s := range suites {
		if _, err := fmt.Fprintf(w, "\n%s:\n", s); err != nil {
			return err
		}
		for _, e := range workload.Suite(s) {
			if _, err := fmt.Fprintf(w, "  %-22s %s\n", e.Name, e.Notes); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table2 writes the machine configuration (Table II).
func Table2(w io.Writer) error {
	c := pipeline.DefaultConfig()
	ctrl := core.NewCoupledPredictors(core.UELF)
	_, err := fmt.Fprintf(w, `Table II: baseline pipeline configuration
  Fetch/Rename width        %d
  Issue width               %d (4 ALU/2 MulDiv, 2 LD/ST, 2 SIMD, 1 StData)
  ROB/IQ/LSQ                %d/%d/%d
  BTB                       L0 %d FA / L1 %d %d-way / L2 %d %d-way
  FAQ                       %d-entry FIFO
  BP1 to FE latency         %d cycles
  Cond pred                 32KB TAGE (8 tagged tables)
  Ind pred                  64-entry L0 BTC + 32KB ITTAGE (4 tables)
  RAS                       32-entry
  I-prefetch                FAQ-driven, <=%d in flight
  Caches                    L0I 24KB/3w/1c, L1I 64KB/8w/3c, L1D 32KB/8w/3c,
                            L2 512KB/8w/13c, L3 16MB/16w/35c, Mem 250c
  Coupled preds (U-ELF)     2K-entry 3-bit bimodal, 32-entry RAS, 64-entry BTC
  Coupled pred storage      %.2f KB (< 2KB per Table II)
`,
		c.FetchWidth,
		c.Backend.ALUPorts+c.Backend.MemPorts+c.Backend.SIMDPorts+1,
		c.Backend.ROB, c.Backend.IQ, c.Backend.LSQ,
		c.BTB.L0Entries, c.BTB.L1Entries, c.BTB.L1Ways, c.BTB.L2Entries, c.BTB.L2Ways,
		c.FAQSize,
		c.BPredToFetch,
		c.MaxPrefetch,
		float64(ctrl.StorageBits())/8/1024)
	return err
}

// TableBTB reports per-workload BTB hit rates under the DCF baseline — the
// statistic behind the paper's Section VI-A server-1 discussion ("28.3%,
// 48.5% and 70.6% hit rate for L0/L1/L2BTB in subtest 1").
func TableBTB(ctx context.Context, w io.Writer, p Params) error {
	entries, err := figureEntries()
	if err != nil {
		return err
	}
	res, err := MatrixResults(ctx, entries, []pipeline.Config{pipeline.DefaultConfig()}, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BTB hit rates under DCF (%% of lookups served per level)\n")
	fmt.Fprintf(w, "%-22s %8s %8s %8s %10s\n", "workload", "L0", "L1", "L2", "L1I miss")
	for _, e := range entries {
		r, _ := res.Get(e.Name, "DCF")
		if _, err := fmt.Fprintf(w, "%-22s %7.1f%% %7.1f%% %7.1f%% %9.1f%%\n", e.Name,
			100*r.BTBHit[0], 100*r.BTBHit[1], 100*r.BTBHit[2], 100*r.L1IMiss); err != nil {
			return err
		}
	}
	return nil
}

// PeriodHistogram prints the coupled-period length distribution for a
// variant on one workload (Figure 8 colour).
func PeriodHistogram(ctx context.Context, w io.Writer, name string, v core.Variant, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	e, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	m, err := pipeline.New(pipeline.DefaultConfig().WithVariant(v), e.Program())
	if err != nil {
		return err
	}
	if p.Warmup > 0 {
		if _, err := m.RunContext(ctx, p.Warmup); err != nil {
			return err
		}
		m.ResetStats()
	}
	if _, err := m.RunContext(ctx, p.Measure); err != nil {
		return err
	}
	elf := m.ELF()
	fmt.Fprintf(w, "%s on %s: %d coupled periods, avg %.1f insts\n",
		v, name, elf.Periods, elf.AvgCoupledInsts())
	lo := 0
	for i, c := range elf.PeriodHist {
		hi := 1 << uint(i)
		if c > 0 {
			fmt.Fprintf(w, "  %4d..%-5d %8d (%.1f%%)\n", lo, hi, c,
				100*float64(c)/float64(elf.Periods))
		}
		lo = hi + 1
	}
	return nil
}

// SweepFrontDepth measures how ELF's benefit scales with the decoupled
// front-end's depth (BP1→FE stages) — the paper's Section III-C point via
// Borch et al.'s "loose loops sink chips" [15]: the Decode→BP1 loop's cost,
// and therefore ELF's recoverable latency, grows with the number of cycles
// between BP1 and Decode.
func SweepFrontDepth(ctx context.Context, w io.Writer, p Params, depths []int, names []string) error {
	if len(depths) == 0 {
		depths = []int{2, 3, 4, 5, 6}
	}
	if len(names) == 0 {
		names = []string{"641.leela_s", "620.omnetpp_s", "401.bzip2"}
	}
	fmt.Fprintf(w, "ELF gain vs front depth (geomean U-ELF/DCF over %v)\n", names)
	fmt.Fprintf(w, "%8s %12s %12s %12s\n", "depth", "DCF IPC*", "U-ELF IPC*", "U/DCF")
	for _, d := range depths {
		base := pipeline.DefaultConfig()
		base.BPredToFetch = d
		uelf := base.WithVariant(core.UELF)
		prodD, prodU := 1.0, 1.0
		for _, n := range names {
			e, err := workload.Lookup(n)
			if err != nil {
				return err
			}
			rd, err := RunOne(ctx, e, base, p)
			if err != nil {
				return err
			}
			ru, err := RunOne(ctx, e, uelf, p)
			if err != nil {
				return err
			}
			prodD *= rd.IPC
			prodU *= ru.IPC
		}
		gd := math.Pow(prodD, 1/float64(len(names)))
		gu := math.Pow(prodU, 1/float64(len(names)))
		fmt.Fprintf(w, "%8d %12.3f %12.3f %12.3f\n", d, gd, gu, gu/gd)
	}
	_, err := fmt.Fprintf(w, "(* geomean IPC over the subset)\n")
	return err
}

// AblationTable runs every design-choice ablation DESIGN.md §6 calls out
// and reports the IPC ratio of choice-on vs choice-off on the workload
// where the mechanism matters.
func AblationTable(ctx context.Context, p Params) (*report.Table, error) {
	t := report.New("Ablations: design choice on/off IPC ratios",
		"ablation", "workload", "on/off", "section")
	type abl struct {
		name, wl, section string
		on, off           pipeline.Config
	}
	base := pipeline.DefaultConfig()
	uelf := base.WithVariant(core.UELF)
	cond := base.WithVariant(core.CONDELF)

	mk := func(c pipeline.Config, f func(*pipeline.Config)) pipeline.Config {
		f(&c)
		return c
	}
	cases := []abl{
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
	for _, a := range cases {
		e, err := workload.Lookup(a.wl)
		if err != nil {
			return nil, err
		}
		on, err := RunOne(ctx, e, a.on, p)
		if err != nil {
			return nil, err
		}
		off, err := RunOne(ctx, e, a.off, p)
		if err != nil {
			return nil, err
		}
		t.Add(a.name, a.wl, report.F(on.IPC/off.IPC), a.section)
	}
	t.Note("(on/off > 1 means the design choice pays off on that workload)")
	return t, nil
}

// SweepFAQ measures the DCF's sensitivity to decoupling depth (FAQ
// capacity): deeper queues let branch prediction run further ahead,
// feeding the prefetcher and absorbing fetch stalls — until the returns
// saturate. (Reinman et al. [5] study exactly this trade-off.)
func SweepFAQ(ctx context.Context, w io.Writer, p Params, sizes []int, name string) error {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32, 64}
	}
	if name == "" {
		name = "server1_subtest_1"
	}
	e, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	t := report.New("DCF IPC vs FAQ depth on "+name, "faq", "IPC", "prefetches")
	for _, s := range sizes {
		cfg := pipeline.DefaultConfig()
		cfg.FAQSize = s
		r, err := RunOne(ctx, e, cfg, p)
		if err != nil {
			return err
		}
		t.Add(report.I(s), report.F(r.IPC), report.I(r.Prefetches))
	}
	return t.WriteText(w)
}
