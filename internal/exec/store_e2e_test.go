package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"elfetch/internal/eval"
	"elfetch/internal/store"
)

// figure6Params is the laptop-scale grid the warm-restart test runs twice.
func figure6Params(r eval.CellRunner) eval.Params {
	return eval.Params{Warmup: 1_000, Measure: 4_000, Parallel: 2, Runner: r}
}

// diskStats extracts the disk tier from a backend's stats.
func diskStats(t *testing.T, s Stats) store.TierStats {
	t.Helper()
	for _, ts := range s.Store {
		if ts.Tier == "disk" {
			return ts
		}
	}
	t.Fatalf("no disk tier in stats: %+v", s.Store)
	return store.TierStats{}
}

// TestWarmRestartE2E is the acceptance gate for the persistent store: a
// full Figure 6 grid run against a store directory, then — after closing
// the store and backend, as a process restart would — a second run over a
// freshly opened store on the same directory must answer every cell from
// disk (zero re-simulations) and render a byte-identical table.
func TestWarmRestartE2E(t *testing.T) {
	dir := t.TempDir()

	run := func() (string, string, store.TierStats) {
		d, err := store.Open(store.DiskConfig{Dir: dir})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		l := NewLocal(LocalConfig{Workers: 2, Store: d})
		tab, res, err := eval.RunExperiment(context.Background(), "figure-6", figure6Params(l))
		if err != nil {
			t.Fatalf("RunExperiment: %v", err)
		}
		var rendered bytes.Buffer
		if err := tab.WriteText(&rendered); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal results: %v", err)
		}
		st := diskStats(t, l.Stats())
		if err := l.Close(); err != nil {
			t.Fatalf("backend Close: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("store Close: %v", err)
		}
		return rendered.String(), string(resJSON), st
	}

	tab1, res1, cold := run()
	if cold.Puts == 0 {
		t.Fatalf("cold run stored nothing: %+v", cold)
	}
	if cold.Hits != 0 {
		t.Fatalf("cold run hit a fresh store: %+v", cold)
	}

	tab2, res2, warm := run()
	if warm.Puts != 0 {
		t.Fatalf("warm restart re-simulated %d cells: %+v", warm.Puts, warm)
	}
	if warm.Hits != cold.Puts {
		t.Fatalf("warm restart answered %d cells from disk, want %d: %+v",
			warm.Hits, cold.Puts, warm)
	}
	if warm.Errors != 0 {
		t.Fatalf("warm restart saw store errors: %+v", warm)
	}
	if res1 != res2 {
		t.Fatalf("warm-restart results differ:\ncold: %s\nwarm: %s", res1, res2)
	}
	if tab1 != tab2 {
		t.Fatalf("warm-restart table differs:\ncold:\n%s\nwarm:\n%s", tab1, tab2)
	}
}

// TestColdCellStoresPayloadBytes pins one encoding per cell Result: a
// cold cell's store Put receives exactly the bytes its payload's
// MarshalJSON returns, and the scheduler cache sizes the entry by them.
func TestColdCellStoresPayloadBytes(t *testing.T) {
	ctx := context.Background()
	d, err := store.Open(store.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := NewLocal(LocalConfig{Workers: 1, Store: d})
	defer l.Close()
	c := testCell()
	label, key, task := l.CellTask(c, nil)
	j, err := l.Scheduler().Submit(ctx, label, key, task)
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st.Result.(EncodedResult)
	if !ok {
		t.Fatalf("cell payload is %T, want EncodedResult", st.Result)
	}
	if want, err := eval.RunCell(ctx, c, nil); err != nil || e.Result != want {
		t.Fatalf("payload Result %+v, want eval.RunCell's %+v (err %v)", e.Result, want, err)
	}
	payload, err := e.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	stored, ok, err := d.Get(key)
	if err != nil || !ok {
		t.Fatalf("store Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(stored, payload) {
		t.Fatalf("stored bytes are not the payload's:\nstored  %s\npayload %s", stored, payload)
	}
	if ts := d.Stats()[0]; ts.Puts != 1 {
		t.Fatalf("store puts = %d, want 1", ts.Puts)
	}
	if cs := l.Scheduler().Stats().Cache; cs.Bytes != int64(len(key)+len(payload)) {
		t.Fatalf("cache sized the entry at %d bytes, want key+payload = %d", cs.Bytes, len(key)+len(payload))
	}
}
