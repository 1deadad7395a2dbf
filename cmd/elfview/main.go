// Command elfview renders a text pipeline view (gem5 pipeview style) of a
// short execution window: one line per instruction, one column per cycle,
// with F/D/R/C marks for fetch, decode, rename and retire. Squashed
// instructions are tagged x (w if wrong-path), coupled-fetched ones c —
// ELF's coupled periods are directly visible after a flush. The window is
// an eval.Measure run: -skip instructions of warmup, then -window
// measured ones with the tracer attached.
//
//	elfview -workload 641.leela_s -front uelf -skip 50000 -window 120
//
// With -chrome the same window is also exported as Chrome trace-event
// JSON for Perfetto / chrome://tracing:
//
//	elfview -workload 641.leela_s -front uelf -chrome window.json
//
// -spans switches to distributed-trace conversion: it reads span JSON
// (from elfbench -spans-out or elfd's GET /debug/trace?format=json) and
// writes a Chrome trace that renders the coordinator and every worker on
// one timeline (DESIGN.md §14). -canonical replaces wall-clock times with
// deterministic logical ones for golden-file diffing:
//
//	elfview -spans spans.json -chrome fleet.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"elfetch/internal/eval"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// convertSpans renders a span-JSON file as Chrome trace-event JSON —
// to the -chrome path, or stdout when none is given.
func convertSpans(spansPath, chromePath string, canonical bool) error {
	f, err := os.Open(spansPath)
	if err != nil {
		return err
	}
	spans, err := obs.ReadSpansJSON(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", spansPath, err)
	}
	out := os.Stdout
	if chromePath != "" {
		out, err = os.Create(chromePath)
		if err != nil {
			return err
		}
	}
	if err := obs.WriteChromeTrace(out, spans, canonical); err != nil {
		if chromePath != "" {
			out.Close()
		}
		return err
	}
	if chromePath != "" {
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s (load in https://ui.perfetto.dev or chrome://tracing)\n",
			len(spans), chromePath)
	}
	return nil
}

func main() {
	wl := flag.String("workload", "641.leela_s", "workload name")
	front := flag.String("front", "uelf", "front-end: nodcf|dcf|lelf|retelf|indelf|condelf|uelf")
	skip := flag.Uint64("skip", 50_000, "instructions to run before recording")
	window := flag.Uint64("window", 96, "instructions to record")
	chrome := flag.String("chrome", "", "also write the window as Chrome trace JSON to this file")
	spansIn := flag.String("spans", "", "convert this span-JSON file (elfbench -spans-out, elfd /debug/trace) to a Chrome trace instead of simulating")
	canonical := flag.Bool("canonical", false, "with -spans: deterministic logical timestamps instead of wall clock")
	flag.Parse()

	if *spansIn != "" {
		if err := convertSpans(*spansIn, *chrome, *canonical); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *canonical {
		fmt.Fprintln(os.Stderr, "-canonical is only meaningful with -spans")
		os.Exit(2)
	}

	e, err := workload.Lookup(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := pipeline.ParseFront(*front)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := eval.Params{Warmup: *skip, Measure: *window}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tr := pipeline.NewTracer(int(*window) * 4)
	if _, err := eval.Measure(context.Background(), e.Program(), cfg, p, tr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s — F fetch, D decode, R rename, C retire; tags: c coupled, x squashed, w wrong-path\n\n",
		cfg.Name(), e.Name)
	if err := tr.WritePipeview(os.Stdout, int(*window)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
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
		fmt.Printf("\nwrote %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *chrome)
	}
}
