package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

func TestCellValidate(t *testing.T) {
	good := Cell{Workload: "641.leela_s", Config: pipeline.DefaultConfig(), Warmup: 100, Measure: 1_000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid cell rejected: %v", err)
	}
	for name, c := range map[string]Cell{
		"no workload": {Config: pipeline.DefaultConfig(), Measure: 1_000},
		"no measure":  {Workload: "641.leela_s", Config: pipeline.DefaultConfig()},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunCellMatchesRunOne(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	p := tiny()
	want, err := RunOne(context.Background(), e, pipeline.DefaultConfig(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCell(context.Background(), Cell{
		Workload: e.Name, Config: pipeline.DefaultConfig(),
		Warmup: p.Warmup, Measure: p.Measure,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("RunCell differs from RunOne:\n got  %+v\n want %+v", got, want)
	}
}

func TestResultsAccessors(t *testing.T) {
	base := pipeline.DefaultConfig()
	uelf := base.WithVariant(core.UELF)
	mk := func(wl string, cfg pipeline.Config, ipc float64) CellResult {
		return CellResult{
			Cell:   Cell{Workload: wl, Config: cfg, Warmup: 1, Measure: 2},
			Result: Result{Workload: wl, Config: cfg.Name(), IPC: ipc},
		}
	}
	rs := Results{
		mk("a", base, 1.0), mk("a", uelf, 1.5),
		mk("b", base, 0.8), mk("b", uelf, 1.1),
	}

	if r, ok := rs.Get("b", uelf.Name()); !ok || r.IPC != 1.1 {
		t.Fatalf("Get(b, %s) = %+v, %v", uelf.Name(), r, ok)
	}
	if _, ok := rs.Get("c", "DCF"); ok {
		t.Fatal("Get for absent workload succeeded")
	}
}

// TestResultsJSONStable proves the ordered form's marshalling is
// byte-stable — the property the map form can't give HTTP payloads.
func TestResultsJSONStable(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{base, base.NoDCF()}
	p := tiny()

	var first []byte
	for i := 0; i < 3; i++ {
		rs, err := MatrixResults(context.Background(), []*workload.Entry{e}, cfgs, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if string(b) != string(first) {
			t.Fatalf("run %d marshalled differently:\n%s\nvs\n%s", i, b, first)
		}
	}
	if !strings.Contains(string(first), `"workload":"641.leela_s"`) {
		t.Fatalf("cells missing from payload: %s", first)
	}
}

// failingRunner fails exactly one named cell and delegates the rest, for
// exercising the partial-results contract.
type failingRunner struct {
	failConfig string
}

func (f failingRunner) Run(ctx context.Context, c Cell) (Result, error) {
	if c.Config.Name() == f.failConfig {
		return Result{}, fmt.Errorf("injected failure for %s", f.failConfig)
	}
	return RunCell(ctx, c, nil)
}

// TestMatrixPartialResults is the bugfix regression test: a failing cell
// must surface a joined error naming it, while completed cells are still
// returned instead of being discarded.
func TestMatrixPartialResults(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{base, base.NoDCF()}
	p := tiny()
	p.Parallel = 1 // deterministic: DCF completes before NoDCF fails
	p.Runner = failingRunner{failConfig: base.NoDCF().Name()}

	rs, err := MatrixResults(context.Background(), []*workload.Entry{e}, cfgs, p)
	if err == nil {
		t.Fatal("failed cell must produce an error")
	}
	if !strings.Contains(err.Error(), "injected failure") ||
		!strings.Contains(err.Error(), base.NoDCF().Name()) {
		t.Fatalf("error does not name the failed cell: %v", err)
	}
	if _, ok := rs.Get(e.Name, base.Name()); !ok {
		t.Fatalf("completed cell discarded; results: %+v", rs)
	}
	if _, ok := rs.Get(e.Name, base.NoDCF().Name()); ok {
		t.Fatal("failed cell present in results")
	}
}

// countingRunner proves matrix dispatch actually flows through
// Params.Runner when one is set.
type countingRunner struct{ calls *int }

func (c countingRunner) Run(ctx context.Context, cell Cell) (Result, error) {
	*c.calls++
	return RunCell(ctx, cell, nil)
}

func TestMatrixDispatchesThroughRunner(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{base, base.NoDCF()}

	p := tiny()
	p.Parallel = 1
	calls := 0
	p.Runner = countingRunner{calls: &calls}

	viaRunner, err := MatrixResults(context.Background(), []*workload.Entry{e}, cfgs, p)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(cfgs) {
		t.Fatalf("runner saw %d cells, want %d", calls, len(cfgs))
	}

	plain := tiny()
	direct, err := MatrixResults(context.Background(), []*workload.Entry{e}, cfgs, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRunner) != len(direct) {
		t.Fatalf("result counts differ: %d vs %d", len(viaRunner), len(direct))
	}
	for i := range direct {
		if viaRunner[i] != direct[i] {
			t.Fatalf("cell %d differs through runner:\n got  %+v\n want %+v",
				i, viaRunner[i], direct[i])
		}
	}
}

func TestMatrixRunnerCancellation(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	p := tiny()
	p.Runner = countingRunner{calls: new(int)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = MatrixResults(ctx, []*workload.Entry{e}, []pipeline.Config{pipeline.DefaultConfig()}, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
