// Root benchmark harness: one bench per paper table/figure plus the
// ablation benches called out in DESIGN.md §6. Each bench iteration runs
// the relevant (workload × configuration) cells at laptop scale and reports
// IPC-family metrics via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the evaluation's data series in miniature; cmd/elfbench runs
// the full-length versions.
package elfetch

import (
	"context"
	"math"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

const (
	benchWarmup  = 30_000
	benchMeasure = 120_000
)

// benchIPC runs one workload under one config and returns IPC.
func benchIPC(b *testing.B, name string, cfg pipeline.Config) float64 {
	b.Helper()
	e, err := workload.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	r, err := eval.RunOne(context.Background(), e, cfg, eval.Params{Warmup: benchWarmup, Measure: benchMeasure}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r.IPC
}

// benchRelative reports cfg's IPC relative to the DCF baseline for each
// workload, as metric "<workload>:rel".
func benchRelative(b *testing.B, names []string, cfg pipeline.Config) {
	b.Helper()
	base := pipeline.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			d := benchIPC(b, n, base)
			v := benchIPC(b, n, cfg)
			b.ReportMetric(v/d, n+":rel")
		}
	}
}

// figureSubset keeps bench runtime reasonable; cmd/elfbench covers the full
// x-axis.
var figureSubset = []string{
	"641.leela_s", "620.omnetpp_s", "server1_subtest_1", "433.milc", "401.bzip2",
}

// BenchmarkTable1WorkloadRegistry builds every registered workload program
// (the Table I substitution) and reports the registry size.
func BenchmarkTable1WorkloadRegistry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, e := range workload.All() {
			if e.Program().Len() == 0 {
				b.Fatal("empty program")
			}
			n++
		}
		b.ReportMetric(float64(n), "workloads")
	}
}

// BenchmarkTable2BaselineIPC runs the Table II baseline configuration on
// the figure subset (the denominators of every figure).
func BenchmarkTable2BaselineIPC(b *testing.B) {
	b.ReportAllocs()
	base := pipeline.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, n := range figureSubset {
			b.ReportMetric(benchIPC(b, n, base), n+":ipc")
		}
	}
}

// BenchmarkFigure6NoDCF regenerates Figure 6's series: NoDCF IPC relative
// to the DCF baseline.
func BenchmarkFigure6NoDCF(b *testing.B) {
	b.ReportAllocs()
	benchRelative(b, figureSubset, pipeline.DefaultConfig().NoDCF())
}

// BenchmarkFigure7 regenerates Figure 7's series: each limited ELF variant
// relative to DCF.
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	for _, v := range []core.Variant{core.LELF, core.RETELF, core.INDELF, core.CONDELF} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			benchRelative(b, figureSubset, pipeline.DefaultConfig().WithVariant(v))
		})
	}
}

// BenchmarkFigure8 regenerates Figure 8's series: L-ELF and U-ELF relative
// IPC plus the avg-coupled-instructions-per-period metric.
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	for _, v := range []core.Variant{core.LELF, core.UELF} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := pipeline.DefaultConfig().WithVariant(v)
			base := pipeline.DefaultConfig()
			for i := 0; i < b.N; i++ {
				for _, n := range figureSubset {
					e, err := workload.Lookup(n)
					if err != nil {
						b.Fatal(err)
					}
					d, err := eval.RunOne(context.Background(), e, base, eval.Params{Warmup: benchWarmup, Measure: benchMeasure}, nil)
					if err != nil {
						b.Fatal(err)
					}
					r, err := eval.RunOne(context.Background(), e, cfg, eval.Params{Warmup: benchWarmup, Measure: benchMeasure}, nil)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(r.IPC/d.IPC, n+":rel")
					b.ReportMetric(r.AvgCoupled, n+":cpl/prd")
				}
			}
		})
	}
}

// BenchmarkFigure9Geomean regenerates Figure 9 in miniature: geomean
// speedups of NoDCF / L-ELF / U-ELF over the figure subset.
func BenchmarkFigure9Geomean(b *testing.B) {
	b.ReportAllocs()
	base := pipeline.DefaultConfig()
	cfgs := map[string]pipeline.Config{
		"NoDCF": base.NoDCF(),
		"L-ELF": base.WithVariant(core.LELF),
		"U-ELF": base.WithVariant(core.UELF),
	}
	for i := 0; i < b.N; i++ {
		den := make(map[string]float64)
		for _, n := range figureSubset {
			den[n] = benchIPC(b, n, base)
		}
		for label, cfg := range cfgs {
			prod := 1.0
			for _, n := range figureSubset {
				prod *= benchIPC(b, n, cfg) / den[n]
			}
			geo := pow(prod, 1/float64(len(figureSubset)))
			b.ReportMetric(geo, label+":geomean")
		}
	}
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// --- Ablation benches (DESIGN.md §6) ---

// ablationPair reports IPC with a design choice on vs off.
func ablationPair(b *testing.B, names []string, on, off pipeline.Config, label string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			a := benchIPC(b, n, on)
			z := benchIPC(b, n, off)
			b.ReportMetric(a/z, n+":"+label)
		}
	}
}

// BenchmarkAblationCheckpointPolicy compares late-bound coupled checkpoints
// against waiting at the ROB head (Section IV-D1).
func BenchmarkAblationCheckpointPolicy(b *testing.B) {
	b.ReportAllocs()
	on := pipeline.DefaultConfig().WithVariant(core.UELF)
	off := on
	off.Ckpt = pipeline.CkptROBHeadWait
	ablationPair(b, []string{"641.leela_s", "401.bzip2"}, on, off, "latebind/robwait")
}

// BenchmarkAblationCondFilter compares COND-ELF with and without the
// saturated-counter speculation filter (Section VI-B).
func BenchmarkAblationCondFilter(b *testing.B) {
	b.ReportAllocs()
	on := pipeline.DefaultConfig().WithVariant(core.CONDELF)
	off := on
	off.SatFilter = false
	ablationPair(b, []string{"620.omnetpp_s", "641.leela_s"}, on, off, "filter/nofilter")
}

// BenchmarkAblationFAQPrefetch compares the DCF with and without FAQ-driven
// instruction prefetching (the server-1 mechanism).
func BenchmarkAblationFAQPrefetch(b *testing.B) {
	b.ReportAllocs()
	on := pipeline.DefaultConfig()
	off := on
	off.FAQPrefetch = false
	ablationPair(b, []string{"server1_subtest_1"}, on, off, "pf/nopf")
}

// BenchmarkAblationL0BTB compares the DCF with and without its 0-cycle L0
// BTB (the taken-branch-bubble mechanism of Figure 2).
func BenchmarkAblationL0BTB(b *testing.B) {
	b.ReportAllocs()
	on := pipeline.DefaultConfig()
	off := on
	off.BTB.L0Entries = 0
	ablationPair(b, []string{"641.leela_s", "437.leslie3d"}, on, off, "l0/nol0")
}

// BenchmarkAblationInterleaveFetch compares fetching across a taken branch
// under the set-interleave condition vs never (Section VI-A / [21]).
func BenchmarkAblationInterleaveFetch(b *testing.B) {
	b.ReportAllocs()
	on := pipeline.DefaultConfig()
	off := on
	off.InterleaveFetch = false
	ablationPair(b, []string{"437.leslie3d", "641.leela_s"}, on, off, "ilv/noilv")
}

// BenchmarkAblationCoupledUpdatePolicy compares training the coupled
// predictors on all branches vs only coupled-fetched ones (Section IV-D3).
func BenchmarkAblationCoupledUpdatePolicy(b *testing.B) {
	b.ReportAllocs()
	on := pipeline.DefaultConfig().WithVariant(core.CONDELF)
	off := on
	off.CoupledUpdateAll = false
	ablationPair(b, []string{"641.leela_s", "server1_subtest_1"}, on, off, "all/coupledonly")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (committed
// instructions per wall second) on the baseline.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		m := pipeline.MustNew(pipeline.DefaultConfig(), e.Program())
		m.Run(benchMeasure)
		total += benchMeasure
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkAblationBoomerang compares the DCF with and without
// predecode-based BTB-miss repair (Section VI-C / Kumar et al. [11]) on the
// BTB-miss-heavy server workload.
func BenchmarkAblationBoomerang(b *testing.B) {
	b.ReportAllocs()
	off := pipeline.DefaultConfig()
	on := off
	on.Boomerang = true
	ablationPair(b, []string{"server1_subtest_1"}, on, off, "boomerang/base")
}

// BenchmarkAblationZeroBubble compares U-ELF with and without the Section
// IV-E sub-cycle coupled redirect.
func BenchmarkAblationZeroBubble(b *testing.B) {
	b.ReportAllocs()
	off := pipeline.DefaultConfig().WithVariant(core.UELF)
	on := off
	on.CoupledZeroBubble = true
	ablationPair(b, []string{"641.leela_s"}, on, off, "zb/base")
}

// BenchmarkAblationCondConfidence compares COND-ELF with and without the
// speculation-confidence filter (the paper's future-work suggestion).
func BenchmarkAblationCondConfidence(b *testing.B) {
	b.ReportAllocs()
	off := pipeline.DefaultConfig().WithVariant(core.CONDELF)
	on := off
	on.CondConfidence = true
	ablationPair(b, []string{"620.omnetpp_s"}, on, off, "conf/base")
}

// BenchmarkSweepFrontDepth reports U-ELF's relative gain at front depths 2
// and 5 — the miniature of the loose-loops sweep (`elfbench -exp sweep-depth`).
func BenchmarkSweepFrontDepth(b *testing.B) {
	b.ReportAllocs()
	for _, depth := range []int{2, 5} {
		depth := depth
		b.Run(fmtInt(depth), func(b *testing.B) {
			b.ReportAllocs()
			base := pipeline.DefaultConfig()
			base.BPredToFetch = depth
			uelf := base.WithVariant(core.UELF)
			for i := 0; i < b.N; i++ {
				d := benchIPC(b, "641.leela_s", base)
				u := benchIPC(b, "641.leela_s", uelf)
				b.ReportMetric(u/d, "rel")
			}
		})
	}
}

func fmtInt(d int) string { return "depth" + string(rune('0'+d)) }
