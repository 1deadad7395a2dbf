// Command elfsim runs one workload on one front-end configuration and
// prints detailed statistics — the single-experiment companion to
// cmd/elfbench.
//
// Usage:
//
//	elfsim -workload 641.leela_s -front uelf -insts 1000000
//	elfsim -workload server1_subtest_1 -compare
//	elfsim -workload 641.leela_s -front uelf -probe -trace-out trace.json
//	elfsim -workload 641.leela_s -front uelf -fleet http://w1:8080
//
// An in-process run (the default, -compare, -probe, -trace-out) is
// eval.Measure: warm up, reset the counters, measure. A non-empty -fleet
// runs the measurement on a remote elfd worker instead (POST /v1/cells);
// the deterministic sim core makes the numbers identical to a local run.
// Machine-introspection flags (-compare, -probe, -trace-out, -profile)
// need the machine in-process and are rejected in fleet mode.
//
// -metrics-out dumps the run's metric registry (probe distributions
// locally, dispatch metrics in fleet mode) in Prometheus text format;
// a failed or interrupted fleet run also dumps the flight recorder to
// stderr (DESIGN.md §14).
//
// -store-dir DIR keeps results in a persistent store (DESIGN.md §15): a
// rerun of the same cell is answered from disk without simulating. Like
// fleet mode it prints only the Result summary, so the introspection
// flags are rejected with it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"elfetch/internal/btb"
	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/report"
	"elfetch/internal/store"
	"elfetch/internal/uop"
	"elfetch/internal/workload"
)

// die prints msg to stderr and exits with code: 2 for a usage error, 1
// for a failed run.
func die(code int, msg any) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}

func main() {
	wl := flag.String("workload", "641.leela_s", "workload name (see elfbench -list)")
	front := flag.String("front", "dcf", "front-end: nodcf|dcf|lelf|retelf|indelf|condelf|uelf")
	insts := flag.Uint64("insts", 1_000_000, "instructions to measure")
	warmup := flag.Uint64("warmup", 200_000, "warmup instructions")
	compare := flag.Bool("compare", false, "run every front-end on the workload and tabulate")
	profile := flag.String("profile", "", "path to a JSON workload definition (overrides -workload)")
	probeOn := flag.Bool("probe", false, "collect and print front-end latency/occupancy distributions")
	traceOut := flag.String("trace-out", "", "write Chrome trace JSON of the measured window to this file (view in Perfetto)")
	traceMax := flag.Int("trace-max", 4096, "max instruction events recorded for -trace-out")
	fleet := flag.String("fleet", "", "comma-separated elfd worker base URLs; a non-empty list runs the cell on them (fleet mode)")
	metricsOut := flag.String("metrics-out", "", "write the final metric registry to this file (Prometheus text format)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty = no store); a stored cell is answered without re-simulating")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "persistent store quota in bytes (0 = 1 GiB)")
	flag.Parse()

	p := eval.Params{Warmup: *warmup, Measure: *insts}
	if err := p.Validate(); err != nil {
		die(2, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if addrs := exec.SplitWorkers(*fleet); len(addrs) > 0 || *storeDir != "" {
		mode := "-store-dir"
		if len(addrs) > 0 {
			mode = "-fleet"
		}
		rejectIntrospection(mode, *compare, *profile != "", *probeOn, *traceOut != "")
		runBackend(ctx, *wl, *front, p, addrs, *metricsOut, *storeDir, *storeMaxBytes)
		return
	}

	var e *workload.Entry
	if *profile != "" {
		f, err := os.Open(*profile)
		if err != nil {
			die(2, err)
		}
		name, prog, err := workload.FromJSON(f)
		f.Close()
		if err != nil {
			die(2, err)
		}
		e = workload.Custom(name, prog)
	} else {
		var err error
		if e, err = workload.Lookup(*wl); err != nil {
			die(2, err)
		}
	}
	if *compare {
		compareFronts(ctx, e, p)
		return
	}
	cfg, err := pipeline.ParseFront(*front)
	if err != nil {
		die(2, err)
	}

	var reg *obs.Registry
	if *probeOn || *metricsOut != "" {
		// -metrics-out without -probe still attaches the probe: the dump is
		// only useful with the distributions populated.
		reg = obs.NewRegistry()
		p.Probe = eval.NewProbe(reg)
	}
	var tr *pipeline.Tracer
	if *traceOut != "" {
		tr = pipeline.NewTracer(*traceMax)
	}
	start := time.Now()
	m, err := eval.Measure(ctx, e.Program(), cfg, p, tr)
	if err != nil {
		die(1, err)
	}
	wall := time.Since(start)
	st := &m.Stats

	fmt.Printf("workload  %s (%s)\n", e.Name, e.Suite)
	fmt.Printf("frontend  %s\n", cfg.Name())
	fmt.Printf("insts     %d committed in %d cycles (%.1f KIPS wall)\n",
		st.Committed, st.Cycles, float64(st.Committed+*warmup)/wall.Seconds()/1000)
	fmt.Printf("IPC       %.4f\n", st.IPC())
	fmt.Printf("MPKI      %.2f cond (%.2f incl. indirect)\n", st.BranchMPKI(), st.TotalMPKI())
	fmt.Printf("branches  %d cond (%d misp), %d indirect (%d misp), %d returns, %d taken\n",
		st.CondBranches, st.CondMispredict, st.IndBranches, st.IndMispredict, st.Returns, st.TakenBranches)
	fmt.Printf("flushes   %d branch, %d target, %d memorder, %d frontend-resteers\n",
		st.Flushes[uop.FlushBranch], st.Flushes[uop.FlushTarget],
		st.Flushes[uop.FlushMemOrder], st.Flushes[uop.FlushFrontend])
	fmt.Printf("fetch     %d uops (%d wrong-path, %.1f%%), %d taken-bubbles, %d prefetches\n",
		st.FetchedUops, st.WrongPathFetched,
		100*float64(st.WrongPathFetched)/float64(st.FetchedUops),
		st.TakenBubbles, st.PrefetchIssued)
	bs := m.BTBStats()
	fmt.Printf("BTB       %.1f%% / %.1f%% / %.1f%% hit (L0/L1/L2), %d misses\n",
		100*bs.HitRate(btb.L0), 100*bs.HitRate(btb.L1), 100*bs.HitRate(btb.L2), bs.Misses)
	h := m.Hierarchy()
	fmt.Printf("caches    L0I %.2f%% miss, L1I %.2f%%, L1D %.2f%%, L2 %.2f%%, L3 %.2f%%\n",
		100*h.L0I.MissRate(), 100*h.L1I.MissRate(), 100*h.L1D.MissRate(),
		100*h.L2.MissRate(), 100*h.L3.MissRate())
	fmt.Printf("backend   %d RAW violations, %d wrong-path executed\n",
		m.Backend().LoadViolations, m.Backend().WrongPathExec)
	if cfg.Front == pipeline.FrontDCF && cfg.Variant.Elastic() {
		elf := m.ELF()
		fmt.Printf("ELF       %d periods, %.1f avg coupled insts/period, %d switches, %d pops\n",
			elf.Periods, elf.AvgCoupledInsts(), elf.ResyncSwitches, elf.ResyncPops)
		fmt.Printf("          divergences: %d direction, %d direct-tgt, %d indirect-tgt; %d overshoot squashes\n",
			elf.Divergences[core.DivDirection], elf.Divergences[core.DivDirectTarget],
			elf.Divergences[core.DivIndirectTarget], elf.OvershootSquashes)
		fmt.Printf("          %d coupled-fetched uops, %d ckpt-deferred cycles\n",
			st.CoupledFetched, st.CkptDeferredCycles)
	}
	fmt.Printf("census    cpl-fetch %d, cpl-stall %d, switch-wait %d, dec-fetch %d, faq-empty %d,\n"+
		"          icache-busy %d, redirect %d, halted %d, backpressure %d\n",
		st.CycCoupledFetch, st.CycCoupledStall, st.CycSwitchPending, st.CycDecoupledFetch,
		st.CycFAQEmpty, st.CycFetchBusy, st.CycRedirect, st.CycHalted, st.CycBackpressure)
	if st.WatchdogRecoveries > 0 {
		fmt.Printf("WARNING   %d watchdog recoveries\n", st.WatchdogRecoveries)
	}
	if *probeOn {
		printProbe(reg, m, cfg)
	}
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			die(1, err)
		}
	}
	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			die(1, err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			die(1, err)
		}
		if err := f.Close(); err != nil {
			die(1, err)
		}
		fmt.Printf("\ntrace     %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
}

// rejectIntrospection fails fast on flags that need the machine in this
// process: the backend paths only carry an eval.Result (and a stored hit
// never builds a machine at all).
func rejectIntrospection(mode string, compare, profile, probe, trace bool) {
	switch {
	case compare:
		die(2, "-compare needs the machine in-process; drop "+mode)
	case profile:
		die(2, "-profile workloads are not content-addressed by registry name; drop "+mode)
	case probe:
		die(2, "-probe needs the machine in-process; drop "+mode)
	case trace:
		die(2, "-trace-out needs the machine in-process; drop "+mode)
	}
}

// printResultSummary renders the wire-format Result lines of a backend
// run.
func printResultSummary(r eval.Result) {
	fmt.Printf("insts     %d committed in %d cycles\n", r.Committed, r.Cycles)
	fmt.Printf("IPC       %.4f\n", r.IPC)
	fmt.Printf("MPKI      %.2f\n", r.MPKI)
	fmt.Printf("BTB       %.1f%% / %.1f%% / %.1f%% hit (L0/L1/L2)\n",
		100*r.BTBHit[0], 100*r.BTBHit[1], 100*r.BTBHit[2])
	fmt.Printf("caches    L1I %.2f%% miss\n", 100*r.L1IMiss)
	fmt.Printf("fetch     %d wrong-path uops, %d prefetches, %d resteers\n",
		r.WrongPath, r.Prefetches, r.Resteers)
	if r.AvgCoupled > 0 {
		fmt.Printf("ELF       %.1f avg coupled insts/period\n", r.AvgCoupled)
	}
}

// openStore opens the disk tier behind -store-dir (exiting on failure).
func openStore(dir string, maxBytes int64, reg *obs.Registry, events *obs.Ring) *store.Disk {
	d, err := store.Open(store.DiskConfig{Dir: dir, MaxBytes: maxBytes,
		Metrics: reg, Events: events})
	if err != nil {
		die(1, err)
	}
	return d
}

// runBackend runs one cell through an execution backend and prints the
// Result summary: a Local pool behind the -store-dir store, or, when addrs
// lists fleet workers, a Fleet over them with that Local as its fallback.
// A stored cell is answered from disk without simulating.
func runBackend(ctx context.Context, wl, front string, p eval.Params, addrs []string, metricsOut,
	storeDir string, storeMaxBytes int64) {
	cfg, err := pipeline.ParseFront(front)
	if err != nil {
		die(2, err)
	}
	reg := obs.NewRegistry()
	events := obs.NewRing(0)
	var pstore store.Store // nil without -store-dir
	if storeDir != "" {
		d := openStore(storeDir, storeMaxBytes, reg, events)
		defer d.Close()
		pstore = d
	}
	_, be, err := exec.NewBackend(addrs, exec.LocalConfig{Metrics: reg, Events: events, Store: pstore}, nil)
	if err != nil {
		die(2, err)
	}
	defer be.Close()
	// flush writes -metrics-out, reporting whether that failed.
	flush := func() bool {
		if metricsOut == "" {
			return false
		}
		err := reg.WriteFile(metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics-out:", err)
		}
		return err != nil
	}

	start := time.Now()
	r, err := be.Run(ctx, eval.Cell{Workload: wl, Config: cfg, Warmup: p.Warmup, Measure: p.Measure})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		events.Dump(os.Stderr)
		flush()
		os.Exit(1)
	}
	fmt.Printf("workload  %s (%s)\n", r.Workload, r.Suite)
	fmt.Printf("frontend  %s\n", r.Config)
	if len(addrs) > 0 {
		st := be.Stats()
		fmt.Printf("backend   fleet (%d workers, %d via fallback) in %.1fs\n",
			len(st.Workers), st.Fallback, time.Since(start).Seconds())
	} else {
		ts := pstore.Stats()[0]
		source := "simulated, stored for next time"
		if ts.Hits > 0 {
			source = "answered from store"
		}
		fmt.Printf("backend   local+store (%s: %s, %d entries) in %.1fs\n",
			source, storeDir, ts.Entries, time.Since(start).Seconds())
	}
	printResultSummary(r)
	if flush() {
		os.Exit(1)
	}
}

// printProbe renders the measurement-window distributions the probe
// collected. eval.NewProbe is idempotent per registry, so calling it again
// here hands back the same histograms the run observed into.
func printProbe(reg *obs.Registry, m *pipeline.Machine, cfg pipeline.Config) {
	p := eval.NewProbe(reg)
	fmt.Printf("\nFAQ high-water %d of %d blocks\n", m.FAQHighWater(), cfg.FAQSize)
	for _, h := range []struct {
		title string
		obs   pipeline.Observer
	}{
		{"flush recovery latency (cycles)", p.FlushRecovery},
		{"FAQ occupancy (blocks, sampled)", p.FAQOccupancy},
		{"coupled-mode residency (cycles)", p.CoupledResidency},
		{"resync drain latency (cycles)", p.ResyncDrain},
	} {
		fmt.Println()
		report.Hist(h.title, h.obs.(*obs.Histogram).Snapshot()).WriteText(os.Stdout)
	}
}

// compareFronts runs every organisation on one workload.
func compareFronts(ctx context.Context, e *workload.Entry, p eval.Params) {
	t := report.New("all front-ends on "+e.Name,
		"front", "IPC", "rel-DCF", "MPKI", "flushes", "wrong-path%", "cpl/prd")
	var dcfIPC float64
	for _, name := range []string{"dcf", "nodcf", "lelf", "retelf", "indelf", "condelf", "uelf"} {
		cfg, err := pipeline.ParseFront(name)
		if err != nil {
			die(2, err)
		}
		m, err := eval.Measure(ctx, e.Program(), cfg, p, nil)
		if err != nil {
			die(1, err)
		}
		st := &m.Stats
		if cfg.Name() == "DCF" {
			dcfIPC = st.IPC()
		}
		rel := "-"
		if dcfIPC > 0 {
			rel = report.F(st.IPC() / dcfIPC)
		}
		flushes := st.Flushes[uop.FlushBranch] + st.Flushes[uop.FlushTarget] + st.Flushes[uop.FlushMemOrder]
		t.Add(cfg.Name(), report.F(st.IPC()), rel, report.F1(st.BranchMPKI()),
			report.I(flushes),
			report.Pct(float64(st.WrongPathFetched)/float64(st.FetchedUops)),
			report.F1(m.ELF().AvgCoupledInsts()))
	}
	t.Note("(rel-DCF is relative to the first row)")
	t.WriteText(os.Stdout)
}
