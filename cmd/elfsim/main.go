// Command elfsim runs one workload on one front-end configuration and
// prints detailed statistics — the single-experiment companion to
// cmd/elfbench.
//
// Usage:
//
//	elfsim -workload 641.leela_s -front uelf -insts 1000000
//	elfsim -workload server1_subtest_1 -compare
//	elfsim -workload 641.leela_s -front uelf -probe -trace-out trace.json
//	elfsim -workload 641.leela_s -front uelf -backend fleet -fleet http://w1:8080
//
// With -backend fleet the measurement runs on a remote elfd worker
// (POST /v1/cells); the deterministic sim core makes the numbers
// identical to a local run. Machine-introspection flags (-compare,
// -probe, -trace-out, -profile) need the machine in-process and are
// rejected in fleet mode.
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
	"strings"
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

// frontConfig maps a -front name to its configuration: "nodcf" is the
// coupled baseline, anything else an ELF variant name (core.ParseVariant).
func frontConfig(name string) (pipeline.Config, error) {
	base := pipeline.DefaultConfig()
	if strings.EqualFold(name, "nodcf") {
		return base.NoDCF(), nil
	}
	v, err := core.ParseVariant(name)
	if err != nil {
		return base, err
	}
	return base.WithVariant(v), nil
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
	backend := flag.String("backend", "local", "execution backend: local or fleet")
	fleet := flag.String("fleet", "", "comma-separated elfd worker base URLs (with -backend fleet)")
	metricsOut := flag.String("metrics-out", "", "write the final metric registry to this file (Prometheus text format)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty = no store); a stored cell is answered without re-simulating")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "persistent store quota in bytes (0 = 1 GiB)")
	flag.Parse()

	fleetMode := *backend == "fleet"
	if !fleetMode {
		if *backend != "" && *backend != "local" {
			fmt.Fprintf(os.Stderr, "unknown backend %q (want local or fleet)\n", *backend)
			os.Exit(2)
		}
		if *fleet != "" {
			fmt.Fprintln(os.Stderr, "-fleet is only meaningful with -backend fleet")
			os.Exit(2)
		}
	}
	if fleetMode || *storeDir != "" {
		mode := "-store-dir"
		if fleetMode {
			mode = "-backend fleet"
		}
		rejectIntrospection(mode, *compare, *profile != "", *probeOn, *traceOut != "")
		runBackend(*wl, *front, *warmup, *insts, fleetMode, *fleet, *metricsOut, *storeDir, *storeMaxBytes)
		return
	}

	var e *workload.Entry
	if *profile != "" {
		f, err := os.Open(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		name, prog, err := workload.FromJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		e = workload.Custom(name, prog)
	} else {
		var err error
		e, err = workload.Lookup(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *compare {
		compareFronts(e, *warmup, *insts)
		return
	}
	cfg, err := frontConfig(*front)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	m := pipeline.MustNew(cfg, e.Program())
	start := time.Now()
	if *warmup > 0 {
		m.Run(*warmup)
		m.ResetStats()
	}
	var reg *obs.Registry
	if *probeOn || *metricsOut != "" {
		// -metrics-out without -probe still attaches the probe: the dump is
		// only useful with the distributions populated.
		reg = obs.NewRegistry()
		m.AttachProbe(eval.NewProbe(reg))
	}
	var tr *pipeline.Tracer
	if *traceOut != "" {
		tr = pipeline.NewTracer(*traceMax)
		m.AttachTracer(tr)
	}
	st := m.Run(*insts)
	wall := time.Since(start)

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
		if err := writeMetricsFile(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace     %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
}

// writeMetricsFile dumps the registry in Prometheus text format.
func writeMetricsFile(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpEvents writes the flight-recorder tail to stderr so a failed or
// interrupted run leaves a post-mortem trail.
func dumpEvents(events *obs.Ring) {
	if events == nil || events.Total() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "flight recorder (%d events recorded, oldest first):\n", events.Total())
	if err := events.WriteJSON(os.Stderr, 0); err != nil {
		fmt.Fprintln(os.Stderr, "flight recorder dump:", err)
	}
	fmt.Fprintln(os.Stderr)
}

// rejectIntrospection fails fast on flags that need the machine in this
// process: the backend paths only carry an eval.Result (and a stored hit
// never builds a machine at all).
func rejectIntrospection(mode string, compare, profile, probe, trace bool) {
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	switch {
	case compare:
		usage("-compare needs the machine in-process; drop " + mode)
	case profile:
		usage("-profile workloads are not content-addressed by registry name; drop " + mode)
	case probe:
		usage("-probe needs the machine in-process; drop " + mode)
	case trace:
		usage("-trace-out needs the machine in-process; drop " + mode)
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return d
}

// runBackend runs one cell through an execution backend and prints the
// Result summary: a Local pool behind the -store-dir store, or in fleet
// mode a Fleet of remote elfd workers with that Local as its fallback. A
// stored cell is answered from disk without simulating.
func runBackend(wl, front string, warmup, insts uint64, fleetMode bool, fleet, metricsOut,
	storeDir string, storeMaxBytes int64) {
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	var addrs []string
	for _, a := range strings.Split(fleet, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if fleetMode && len(addrs) == 0 {
		usage("-backend fleet needs -fleet host1,host2,...")
	}
	cfg, err := frontConfig(front)
	if err != nil {
		usage(err.Error())
	}
	reg := obs.NewRegistry()
	events := obs.NewRing(0)
	var pstore store.Store // nil without -store-dir
	if storeDir != "" {
		d := openStore(storeDir, storeMaxBytes, reg, events)
		defer d.Close()
		pstore = d
	}
	local := exec.NewLocal(exec.LocalConfig{Metrics: reg, Events: events, Store: pstore})
	var be exec.Backend = local
	if fleetMode {
		f, err := exec.NewFleet(exec.FleetConfig{
			Workers:  addrs,
			Fallback: local,
			Metrics:  reg,
			Events:   events,
			Store:    pstore,
		})
		if err != nil {
			usage(err.Error())
		}
		be = f
	}
	defer be.Close()
	// flush writes -metrics-out, reporting whether that failed.
	flush := func() bool {
		if metricsOut == "" {
			return false
		}
		err := writeMetricsFile(metricsOut, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics-out:", err)
		}
		return err != nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	r, err := be.Run(ctx, eval.Cell{Workload: wl, Config: cfg, Warmup: warmup, Measure: insts})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		dumpEvents(events)
		flush()
		os.Exit(1)
	}
	fmt.Printf("workload  %s (%s)\n", r.Workload, r.Suite)
	fmt.Printf("frontend  %s\n", r.Config)
	if fleetMode {
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
func compareFronts(e *workload.Entry, warmup, insts uint64) {
	t := report.New("all front-ends on "+e.Name,
		"front", "IPC", "rel-DCF", "MPKI", "flushes", "wrong-path%", "cpl/prd")
	var dcfIPC float64
	for _, name := range []string{"dcf", "nodcf", "lelf", "retelf", "indelf", "condelf", "uelf"} {
		cfg, err := frontConfig(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		m := pipeline.MustNew(cfg, e.Program())
		if warmup > 0 {
			m.Run(warmup)
			m.ResetStats()
		}
		st := m.Run(insts)
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
