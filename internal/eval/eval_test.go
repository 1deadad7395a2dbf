package eval

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// tiny keeps harness tests fast.
func tiny() Params { return Params{Warmup: 5_000, Measure: 20_000, Parallel: 4} }

func TestParamsValidate(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Warmup: 100, Measure: 0},
		{Warmup: MaxRunInsts, Measure: 1},
		{Measure: 1, Parallel: -1},
		// Sums that wrap a uint64 must not read as within the budget.
		{Warmup: 1<<64 - 1, Measure: 1},
		{Warmup: 1 << 63, Measure: 1 << 63},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
}

func TestRunOneProducesMetrics(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunOne(context.Background(), e, pipeline.DefaultConfig(), tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.Committed < 20_000 || r.Cycles == 0 {
		t.Fatalf("implausible result: %+v", r)
	}
	if r.Workload != "641.leela_s" || r.Config != "DCF" {
		t.Fatalf("identity fields: %+v", r)
	}
}

func TestRunOneRejectsBadParams(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOne(context.Background(), e, pipeline.DefaultConfig(), Params{}, nil); err == nil {
		t.Error("zero Measure accepted")
	}
}

func TestRunOneCancelled(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOne(ctx, e, pipeline.DefaultConfig(), tiny(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMatrixCancellation proves MatrixResults returns promptly when its
// context is cancelled mid-matrix: a full-length matrix would take many seconds, but a
// cancel a few milliseconds in must return within the poll latency.
func TestMatrixCancellation(t *testing.T) {
	var entries []*workload.Entry
	for _, name := range workload.FigureSet() {
		e, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{base, base.WithVariant(core.UELF)}
	big := Params{Warmup: 100_000, Measure: 10_000_000, Parallel: 4}

	// Prebuild the lazily-generated programs so the timing below measures
	// cancellation latency, not first-touch program generation.
	for _, e := range entries {
		e.Program()
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := MatrixResults(ctx, entries, cfgs, big)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound: each worker aborts within one 2048-cycle poll, so
	// anything near a full-matrix runtime means cancellation didn't happen.
	if elapsed > 5*time.Second {
		t.Fatalf("MatrixResults took %v after cancel; not prompt", elapsed)
	}
}

func TestFigure6Harness(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	tbl, res, err := RunExperiment(context.Background(), "figure-6", tiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "641.leela_s") {
		t.Fatalf("output missing expected rows:\n%s", out)
	}
	// Every figure workload must have both configs measured.
	for _, name := range workload.FigureSet() {
		dcf, okD := res.Get(name, "DCF")
		nodcf, okN := res.Get(name, "NoDCF")
		if !okD || !okN || dcf.IPC <= 0 || nodcf.IPC <= 0 {
			t.Errorf("%s: incomplete matrix cell", name)
		}
	}
}

func TestFigureTableDispatch(t *testing.T) {
	for _, name := range []string{"figure-5", "figure-10", "6", ""} {
		if _, _, err := RunExperiment(context.Background(), name, tiny()); err == nil {
			t.Errorf("experiment %q accepted", name)
		}
	}
}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "server1_subtest_1") {
		t.Error("Table I missing server workloads")
	}
	buf.Reset()
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ROB/IQ/LSQ", "256/128/128", "TAGE", "< 2KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestPeriodHistogramRenders(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	if err := PeriodHistogram(ctx, &buf, "641.leela_s", core.UELF, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coupled periods") {
		t.Errorf("histogram output:\n%s", buf.String())
	}
	if err := PeriodHistogram(ctx, &buf, "nope", core.UELF, tiny()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSweepFrontDepthRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	tbl, _, err := RunExperiment(context.Background(), "sweep-depth", tiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "depth") || len(tbl.Rows) != 5 {
		t.Fatalf("sweep output:\n%s", out)
	}
}

func TestSweepFAQRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	tbl, _, err := RunExperiment(context.Background(), "sweep-faq", tiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAQ depth") {
		t.Fatalf("output:\n%s", buf.String())
	}
}
