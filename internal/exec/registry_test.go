package exec

import (
	"bytes"
	"context"
	"testing"

	"elfetch/internal/eval"
	"elfetch/internal/report"
)

// TestOneLocalRunsEveryExperiment runs the whole experiment registry
// through one Local, as elfbench -exp all does: a cell that several
// experiments share is simulated once, so the pool completes exactly one
// job per distinct cell key, and every experiment's results and table
// equal the in-process runner's.
func TestOneLocalRunsEveryExperiment(t *testing.T) {
	ctx := context.Background()
	p := eval.Params{Warmup: 0, Measure: 500, Parallel: 2}
	l := NewLocal(LocalConfig{Workers: 2})
	defer l.Close()
	lp := p
	lp.Runner = l

	keys := map[string]bool{}
	cells := 0
	for _, name := range eval.ExperimentNames() {
		x, err := eval.LookupExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range x.Cells {
			c.Warmup, c.Measure = p.Warmup, p.Measure
			keys[cellKey(c)] = true
			cells++
		}
		wantTab, want, err := eval.RunExperiment(ctx, name, p)
		if err != nil {
			t.Fatalf("%s in process: %v", name, err)
		}
		gotTab, got, err := eval.RunExperiment(ctx, name, lp)
		if err != nil {
			t.Fatalf("%s through Local: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d results through Local, %d in process", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s cell %d:\nLocal      %+v\nin process %+v", name, i, got[i], want[i])
			}
		}
		var gb, wb bytes.Buffer
		if err := gotTab.Write(&gb, report.CSV); err != nil {
			t.Fatal(err)
		}
		if err := wantTab.Write(&wb, report.CSV); err != nil {
			t.Fatal(err)
		}
		if gb.String() != wb.String() {
			t.Fatalf("%s table differs:\nLocal\n%s\nin process\n%s", name, gb.String(), wb.String())
		}
	}

	st := l.Stats()
	if st.Cells != uint64(cells) || st.Failed != 0 {
		t.Fatalf("Local answered %d cells (%d failed), want %d", st.Cells, st.Failed, cells)
	}
	if got := st.Scheduler.Completed; got != uint64(len(keys)) {
		t.Fatalf("Local simulated %d cells, want one per distinct key: %d", got, len(keys))
	}
	if len(keys) >= cells {
		t.Fatalf("registry shares no cells (%d distinct of %d)", len(keys), cells)
	}
	t.Logf("%d cells requested, %d distinct, %d simulated", cells, len(keys), st.Scheduler.Completed)
}
