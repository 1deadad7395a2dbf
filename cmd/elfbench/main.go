// Command elfbench regenerates the paper's evaluation over the synthetic
// workload registry: every figure, table, sweep and ablation registered in
// internal/eval, plus Tables I and II.
//
// Usage:
//
//	elfbench -exp figure-8                # one experiment
//	elfbench -exp ablate,sweep-faq        # several, in the order given
//	elfbench -exp all                     # every registered experiment
//	elfbench -list                        # Table I (workloads)
//	elfbench -config                      # Table II (machine configuration)
//	elfbench -warmup 200000 -insts 800000 -exp figure-9 -format csv
//	elfbench -fleet http://w1:8080,http://w2:8080 -exp figure-6
//
// The experiments are figure-6 … figure-9, btb (Section VI-A BTB hit
// rates), ablate (the design-choice ablations), sweep-faq (FAQ depth) and
// sweep-depth (BP1→FE depth, the loose-loops experiment). Each one's
// cells go through one backend. By default it is an in-process pool of
// -parallel workers with a result cache, so a cell that several
// experiments share (the DCF baseline recurs across Figures 6–9 and the
// BTB table) is simulated once. A non-empty -fleet shards them across the
// listed elfd workers instead (each serving POST /v1/cells); the sim
// core's determinism makes the output byte-identical to local execution,
// and a dead fleet degrades to local so the run still completes. -hist
// measures its one machine in process, through eval.Measure.
//
// Observability (DESIGN.md §14): -metrics-out dumps the run's metric
// registry in Prometheus text format, -spans-out writes the distributed
// trace of a fleet run as span JSON (render with elfview -spans), and
// -slow-cell-ms flags outlier cells in the flight recorder, which is
// dumped to stderr when a run fails or is interrupted.
//
// -store-dir DIR keeps every cell result in a persistent store
// (DESIGN.md §15): rerunning an experiment against the same directory answers
// all of it from disk — a warm restart — and text mode prints the
// per-tier store ledger after the run.
//
// Ctrl-C cancels in-flight simulations promptly (everything runs under a
// signal-aware context). For serving experiments over HTTP, see cmd/elfd.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/report"
	"elfetch/internal/store"
)

// printStoreStats reports the persistent store's per-tier counters after
// a run — the warm-restart ledger: an all-hits/zero-puts second run means
// the store answered everything.
func printStoreStats(w io.Writer, st store.Store) {
	fmt.Fprintln(w, "persistent store:")
	for _, t := range st.Stats() {
		fmt.Fprintf(w, "  %-5s hits=%d misses=%d puts=%d entries=%d bytes=%d segments=%d compactions=%d",
			t.Tier, t.Hits, t.Misses, t.Puts, t.Entries, t.Bytes, t.Segments, t.Compactions)
		if t.Errors > 0 {
			fmt.Fprintf(w, " errors=%d", t.Errors)
		}
		fmt.Fprintln(w)
	}
}

func main() {
	exps := flag.String("exp", "", "experiments to run, comma-separated, or all: "+strings.Join(eval.ExperimentNames(), ", "))
	list := flag.Bool("list", false, "print Table I (workload registry)")
	config := flag.Bool("config", false, "print Table II (machine configuration)")
	hist := flag.String("hist", "", "print the coupled-period histogram for WORKLOAD:VARIANT (e.g. 641.leela_s:uelf)")
	format := flag.String("format", "text", "output format for -exp: text|csv|json")
	warmup := flag.Uint64("warmup", eval.DefaultParams().Warmup, "warmup instructions per run")
	insts := flag.Uint64("insts", eval.DefaultParams().Measure, "measured instructions per run")
	par := flag.Int("parallel", 0, "parallel runs (0 = GOMAXPROCS)")
	fleet := flag.String("fleet", "", "comma-separated elfd worker base URLs; a non-empty list shards cells across them (fleet mode)")
	metricsOut := flag.String("metrics-out", "", "write the final metric registry to this file (Prometheus text format)")
	spansOut := flag.String("spans-out", "", "write the fleet run's span log to this file as JSON (needs -fleet; render with elfview -spans)")
	slowCellMS := flag.Int("slow-cell-ms", 0, "record a slow_cell flight-recorder event for cells slower than this (0 = off)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty = no store); a rerun answers stored cells without re-simulating")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "persistent store quota in bytes (0 = 1 GiB); compaction evicts oldest entries beyond it")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Profiling (README "Profiling the simulator"): the CPU profile covers
	// everything from here on; the heap profile snapshots live objects at
	// exit. Both are flushed on the fatal path too.
	stopProfiles := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
	}
	writeHeap := func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC() // materialise the steady-state live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}

	p := eval.Params{Warmup: *warmup, Measure: *insts, Parallel: *par}
	// The backend's Local carries the registry, flight recorder and store
	// every cell reports to; the fleet shares them and the span log.
	lc := exec.LocalConfig{Workers: *par, Metrics: obs.NewRegistry(), Events: obs.NewRing(0),
		SlowCell: time.Duration(*slowCellMS) * time.Millisecond}
	spans := obs.NewSpanLog(0)
	spans.Seed(uint64(time.Now().UnixNano()))
	flush := func() {
		if *metricsOut != "" {
			if err := lc.Metrics.WriteFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "metrics-out:", err)
			}
		}
		stopProfiles()
		writeHeap()
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		lc.Events.Dump(os.Stderr)
		flush()
		os.Exit(1)
	}
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := p.Validate(); err != nil {
		usage(err)
	}

	addrs := exec.SplitWorkers(*fleet)
	if *spansOut != "" && len(addrs) == 0 {
		usage(fmt.Errorf("-spans-out needs -fleet (only fleet dispatch records spans)"))
	}
	if *storeDir != "" {
		d, err := store.Open(store.DiskConfig{
			Dir:      *storeDir,
			MaxBytes: *storeMaxBytes,
			Metrics:  lc.Metrics,
			Events:   lc.Events,
		})
		if err != nil {
			fatal(err)
		}
		lc.Store = d
		defer d.Close()
	}
	_, be, err := exec.NewBackend(addrs, lc, spans)
	if err != nil {
		usage(err)
	}
	p.Runner = be
	// One root span per invocation: every fleet dispatch becomes part of a
	// single stitched trace (DESIGN.md §14).
	root := spans.StartSpan(nil, "grid")
	root.SetAttr("cmd", "elfbench")
	ctx = obs.ContextWithSpan(ctx, root)
	defer func() {
		st := be.Stats()
		if b, err := json.Marshal(st); err == nil {
			fmt.Fprintf(os.Stderr, "backend stats: %s\n", b)
		}
		be.Close()
	}()
	fmtOut, err := report.ParseFormat(*format)
	if err != nil {
		usage(err)
	}
	var names []string
	for _, n := range strings.Split(*exps, ",") {
		switch n = strings.TrimSpace(n); n {
		case "":
		case "all":
			names = append(names, eval.ExperimentNames()...)
		default:
			if _, err := eval.LookupExperiment(n); err != nil {
				usage(err)
			}
			names = append(names, n)
		}
	}

	// timed gates the trailing wall-clock chatter on text output, so CSV
	// and JSON stay machine-parseable.
	timed := func(f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		if fmtOut == report.Text {
			fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		}
		return nil
	}

	ran := false
	if *list {
		if err := eval.Table1(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		ran = true
	}
	if *config {
		if err := eval.Table2(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		ran = true
	}
	if *hist != "" {
		parts := strings.SplitN(*hist, ":", 2)
		if len(parts) != 2 {
			usage(fmt.Errorf("-hist wants WORKLOAD:VARIANT"))
		}
		v, err := core.ParseVariant(parts[1])
		if err != nil {
			usage(err)
		}
		if err := eval.PeriodHistogram(ctx, os.Stdout, parts[0], v, p); err != nil {
			fatal(err)
		}
		ran = true
	}
	for _, name := range names {
		err := timed(func() error {
			t, _, err := eval.RunExperiment(ctx, name, p)
			if err != nil {
				return err
			}
			return t.Write(os.Stdout, fmtOut)
		})
		if err != nil {
			fatal(err)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if lc.Store != nil && fmtOut == report.Text {
		printStoreStats(os.Stdout, lc.Store)
	}
	root.Finish()
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteSpansJSON(f, spans.Snapshot()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote spans to %s (render with elfview -spans %s -chrome out.json)\n",
			*spansOut, *spansOut)
	}
	flush()
}
