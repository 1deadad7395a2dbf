// Command bench is the repository's performance benchmark: four
// workloads that time the simulator's cycle loop, the store-backed grid
// and the fleet hop, end to end (untraced) and per layer (-trace 1), and
// check the outputs they produce. See README.md for the workloads, the
// metrics and how to compare two sets of runs.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// With -workload, the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without it, each of the
// four workloads runs in a child process of its own.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
)

// workloads are the benchmark's named inputs, with the number of CPUs
// each keeps busy: the simulations one goroutine, the grid two
// simulation workers, the fleet its client and its worker.
var workloads = []struct {
	name string
	par  int
	run  func(*run) error
}{
	{"sim-frontend", 1, func(r *run) error { return runSim(r, simFrontend()) }},
	{"sim-memory", 1, func(r *run) error { return runSim(r, simMemory()) }},
	{"grid-store", 2, runGrid},
	{"fleet-cells", 2, runFleet},
}

// Paths relative to the repository root, where the benchmark runs.
const (
	workDir    = ".bench_build" // scratch state, span JSON and profiles
	goldenPath = "internal/eval/testdata/golden_stats.json"
)

// record is one workload run as -out appends it (one JSON object a line).
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// HostRefMS is the median reference-kernel time: the end-to-end
	// host times in Metrics are the measured ones times
	// refNominal*1e3/HostRefMS, and rates divided by it (host.go).
	HostRefMS float64                `json:"host_ref_ms"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run (sim-frontend, sim-memory, grid-store, fleet-cells); empty runs all four, each in its own process")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs (0 = the registry's programs)")
		seconds = flag.Float64("seconds", 20, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out     = flag.String("out", "", "append each workload run's record to this JSON-lines file")
		elfdBin = flag.String("elfd", ".bench_build/bin/elfd", "elfd binary (fleet-cells)")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare A B")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *wl == "":
		err = runAll(ctx)
	default:
		opt := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
			elfd: *elfdBin, golden: goldenPath, out: filepath.Join(workDir, "out")}
		err = runOne(ctx, opt, defaultSizes(), workDir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints its metrics and the
// result line, and appends its record to outFile when set. A failed
// check makes it return an error after printing.
func runOne(ctx context.Context, opt options, sz sizes, work, outFile string) error {
	rec, err := measure(ctx, opt, sz, work)
	if err != nil {
		return err
	}
	printRecord(os.Stdout, rec)
	if outFile != "" {
		if err := appendRecord(outFile, rec); err != nil {
			return err
		}
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]map[string]any{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", opt.workload, rec.Failed, rec.Attempted)
	}
	return nil
}

// measure runs one workload and returns its record.
func measure(ctx context.Context, opt options, sz sizes, work string) (*record, error) {
	var fn func(*run) error
	par := 1
	for _, w := range workloads {
		if w.name == opt.workload {
			fn, par = w.run, w.par
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if _, err := os.Stat(opt.golden); err != nil {
		return nil, fmt.Errorf("%v (run from the repository root)", err)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-"+opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opt.dir = dir
	r := newRun(ctx, opt, sz, par)
	if err := fn(r); err != nil {
		return nil, err
	}
	ref := median(r.refs) * 1e3
	r.set("host.ref_ms", ref, len(r.refs))
	m := r.report()
	return &record{Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Seconds: opt.seconds,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		HostRefMS: ref, Metrics: m}, nil
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d operations, %d failed; reference kernel %.3f ms (host times below are at %.1f ms)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.HostRefMS, refNominal*1e3)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, name := range names(rec.Metrics) {
		m := rec.Metrics[name]
		extra := ""
		if m.Q1 != 0 || m.Q3 != 0 {
			extra = fmt.Sprintf("  q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.Pct != 0 {
			extra += fmt.Sprintf("  p%g", m.Pct)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-10s n=%d%s\n", name, m.Value, m.Unit, m.N, extra)
	}
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs each workload in a child process of its own (so peak
// memory is the workload's), with this process's flags.
func runAll(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := osexec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failed = append(failed, w.name+" ("+err.Error()+")")
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %v", failed)
	}
	return nil
}
