package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// openTestStore opens a disk store in a fresh temp dir, closed at cleanup.
func openTestStore(t *testing.T) *store.Disk {
	t.Helper()
	d, err := store.Open(store.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// storeWorker serves an elfd worker over st behind httptest.
func storeWorker(t *testing.T, st store.Store) *httptest.Server {
	t.Helper()
	s := sched.New(sched.Config{Workers: 1, QueueDepth: 8})
	ws := httptest.NewServer(newServer(s, eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{Store: st}))
	t.Cleanup(func() {
		ws.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ws
}

// postCell runs c through POST /v1/cells and decodes the result.
func postCell(t *testing.T, base string, c eval.Cell) eval.Result {
	t.Helper()
	body, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cells: %s", resp.Status)
	}
	var r eval.Result
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOneCellPath pins that exec.Local, elfd's POST /v1/cells and
// exec.Fleet run a cell through the same code: the three return the same
// Result, and the two stores hold byte-identical values under the same
// key — the key and encoding the store has always used, so store
// directories written by earlier builds still answer. A worker whose
// store already holds a cell answers it from the store without
// simulating.
func TestOneCellPath(t *testing.T) {
	ctx := context.Background()
	c := eval.Cell{
		Workload: "641.leela_s",
		Config:   pipeline.DefaultConfig().WithVariant(core.UELF),
		Warmup:   1_000,
		Measure:  4_000,
	}
	// The key stores have always used: changing it would orphan every
	// store directory written so far.
	key := sched.Key("cell", c)

	localStore := openTestStore(t)
	l := exec.NewLocal(exec.LocalConfig{Workers: 1, Store: localStore})
	viaLocal, err := l.Run(ctx, c)
	l.Close()
	if err != nil {
		t.Fatal(err)
	}

	workerStore := openTestStore(t)
	ws := storeWorker(t, workerStore)
	viaHTTP := postCell(t, ws.URL, c)

	f, err := exec.NewFleet(exec.FleetConfig{Workers: []string{ws.URL}})
	if err != nil {
		t.Fatal(err)
	}
	viaFleet, err := f.Run(ctx, c)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	if viaHTTP != viaLocal || viaFleet != viaLocal {
		t.Fatalf("paths disagree:\nlocal %+v\nhttp  %+v\nfleet %+v", viaLocal, viaHTTP, viaFleet)
	}
	localBytes, ok, err := localStore.Get(key)
	if err != nil || !ok {
		t.Fatalf("local store Get: ok=%v err=%v", ok, err)
	}
	workerBytes, ok, err := workerStore.Get(key)
	if err != nil || !ok {
		t.Fatalf("worker store Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(localBytes, workerBytes) {
		t.Fatalf("stores differ under %s:\nlocal  %s\nworker %s", key, localBytes, workerBytes)
	}
	if want, _ := json.Marshal(viaLocal); !bytes.Equal(localBytes, want) {
		t.Fatalf("stored value is not the Result's JSON:\n got  %s\n want %s", localBytes, want)
	}
	// The fleet hop was answered from the worker's cache: one simulation.
	if st := workerStore.Stats()[0]; st.Puts != 1 {
		t.Fatalf("worker store puts = %d, want 1", st.Puts)
	}

	// Store-backed: a worker whose scheduler has run nothing answers from
	// a pre-filled store, so the planted value comes back verbatim.
	planted := eval.Result{Workload: c.Workload, Config: c.Config.Name(), IPC: 1.25, Committed: 42}
	b, err := json.Marshal(planted)
	if err != nil {
		t.Fatal(err)
	}
	prefilled := openTestStore(t)
	if err := prefilled.Put(key, b); err != nil {
		t.Fatal(err)
	}
	if got := postCell(t, storeWorker(t, prefilled).URL, c); got != planted {
		t.Fatalf("store-backed worker returned %+v, want the stored %+v", got, planted)
	}
	if st := prefilled.Stats()[0]; st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("prefilled store = %+v, want hits=1 puts=1 (the plant only)", st)
	}
}
