package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"elfetch/internal/report"
	"elfetch/internal/workload"
)

// recordingRunner records every cell it is handed and answers with a
// synthetic Result, so the registry test checks dispatch and rendering
// without simulating.
type recordingRunner struct {
	mu   sync.Mutex
	seen map[string]int // cell JSON -> times dispatched
}

func (r *recordingRunner) Run(ctx context.Context, c Cell) (Result, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return Result{}, err
	}
	r.mu.Lock()
	r.seen[string(b)]++
	r.mu.Unlock()
	return Result{Workload: c.Workload, Config: c.Config.Name(), IPC: 1}, nil
}

// TestExperimentRegistry runs every registered experiment through a
// recording runner: every cell must reach the runner once per occurrence
// at the requested run lengths, survive the JSON round trip fleet workers depend
// on, name a registered workload, and the table must render in every
// format.
func TestExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 8 {
		t.Fatalf("registry has %d experiments: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			x, err := LookupExperiment(name)
			if err != nil {
				t.Fatal(err)
			}
			rr := &recordingRunner{seen: map[string]int{}}
			p := tiny()
			p.Runner = rr
			tbl, res, err := RunExperiment(context.Background(), name, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(x.Cells) {
				t.Fatalf("%d results for %d cells", len(res), len(x.Cells))
			}
			want := map[string]int{}
			for i, c := range x.Cells {
				if c.Warmup != 0 || c.Measure != 0 {
					t.Fatalf("registry cell %d carries run lengths: %+v", i, c)
				}
				if _, err := workload.Lookup(c.Workload); err != nil {
					t.Fatalf("cell %d: %v", i, err)
				}
				c.Warmup, c.Measure = p.Warmup, p.Measure
				if res[i].Cell != c {
					t.Fatalf("result %d is for %+v, want cell %+v", i, res[i].Cell, c)
				}
				b, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				var back Cell
				if err := json.Unmarshal(b, &back); err != nil {
					t.Fatal(err)
				}
				if back != c {
					t.Fatalf("cell %d does not survive JSON:\n got  %+v\n want %+v", i, back, c)
				}
				want[string(b)]++
			}
			for k, n := range want {
				if rr.seen[k] != n {
					t.Errorf("cell dispatched %d times, want %d: %s", rr.seen[k], n, k)
				}
			}
			if len(rr.seen) != len(want) {
				t.Errorf("runner saw %d distinct cells, want %d", len(rr.seen), len(want))
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
				var buf bytes.Buffer
				if err := tbl.Write(&buf, f); err != nil || buf.Len() == 0 {
					t.Errorf("%s rendering: %v (%d bytes)", f, err, buf.Len())
				}
			}
		})
	}
	if _, err := LookupExperiment("figure-5"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
