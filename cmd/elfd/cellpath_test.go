package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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

// storeServer builds a one-worker elfd over st the way cmd/elfd's main
// wires one.
func storeServer(t *testing.T, st store.Store) *server {
	t.Helper()
	return newTestServer(t, exec.LocalConfig{Workers: 1, QueueDepth: 8, Store: st},
		eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{})
}

// storeWorker serves an elfd worker over st behind httptest.
func storeWorker(t *testing.T, st store.Store) *httptest.Server {
	t.Helper()
	ws := httptest.NewServer(storeServer(t, st))
	t.Cleanup(ws.Close)
	return ws
}

// postCellBytes runs c through POST /v1/cells and returns the reply body.
func postCellBytes(t *testing.T, base string, c eval.Cell) []byte {
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
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postCell runs c through POST /v1/cells and decodes the result.
func postCell(t *testing.T, base string, c eval.Cell) eval.Result {
	t.Helper()
	var r eval.Result
	if err := json.Unmarshal(postCellBytes(t, base, c), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// uelfCell is the small 641.leela_s U-ELF cell the one-encoding tests run.
func uelfCell() eval.Cell {
	return eval.Cell{Workload: "641.leela_s", Config: pipeline.DefaultConfig().WithVariant(core.UELF),
		Warmup: 1_000, Measure: 4_000}
}

// plantIndented opens a store holding, under c's key, a Result encoded
// with non-canonical whitespace, and returns the store, the planted bytes
// and the Result they decode to.
func plantIndented(t *testing.T, c eval.Cell) (*store.Disk, []byte, eval.Result) {
	t.Helper()
	planted := eval.Result{Workload: c.Workload, Config: c.Config.Name(), IPC: 1.25, Committed: 42}
	b, err := json.MarshalIndent(planted, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, "\n\n"...)
	st := openTestStore(t)
	if err := st.Put(sched.Key("cell", c), b); err != nil {
		t.Fatal(err)
	}
	return st, b, planted
}

// TestOneCellPath pins that exec.Local, elfd's POST /v1/cells and
// exec.Fleet run a cell through the same code: the three return the same
// Result, and the two stores hold byte-identical values under the same
// key — the key and encoding the store has always used, so store
// directories written by earlier builds still answer. An elfd run job of
// the same workload and variant is that cell too. A worker whose store
// already holds a cell answers it from the store without simulating.
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

	// A run job stores the same bytes under the same key, and POST
	// /v1/cells then answers the cell from the scheduler cache.
	runStore := openTestStore(t)
	rs := storeServer(t, runStore)
	rec, _ := doJSON(t, rs, "POST", "/v1/jobs?wait=1",
		map[string]any{"workload": c.Workload, "variant": "uelf"})
	if rec.Code != http.StatusOK {
		t.Fatalf("run job: %d %s", rec.Code, rec.Body.String())
	}
	var job struct{ Result eval.Result }
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.Result != viaLocal {
		t.Fatalf("run job returned %+v, want %+v", job.Result, viaLocal)
	}
	runBytes, ok, err := runStore.Get(key)
	if err != nil || !ok {
		t.Fatalf("run job left nothing under the cell key: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(runBytes, localBytes) {
		t.Fatalf("run job stored different bytes:\nrun   %s\nlocal %s", runBytes, localBytes)
	}
	before := rs.sched.Stats()
	rec, _ = doJSON(t, rs, "POST", "/v1/cells", c)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/cells after the run job: %d %s", rec.Code, rec.Body.String())
	}
	after := rs.sched.Stats()
	if after.Cache.Hits != before.Cache.Hits+1 || after.Completed != before.Completed {
		t.Fatalf("cell after the run job was not a cache hit: before %+v after %+v", before, after)
	}
	if st := runStore.Stats()[0]; st.Puts != 1 {
		t.Fatalf("run store puts = %d, want 1", st.Puts)
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

// TestCellReplyIsTheStoredBytes pins one encoding per cell Result on a
// worker: POST /v1/cells answers with exactly the bytes its store holds
// under the cell key, whether the cell was simulated, repeated from the
// scheduler cache or read from the store, so a record planted with
// non-canonical whitespace comes back byte for byte.
func TestCellReplyIsTheStoredBytes(t *testing.T) {
	c := uelfCell()
	key := sched.Key("cell", c)
	st := openTestStore(t)
	srv := storeServer(t, st)
	ws := httptest.NewServer(srv)
	t.Cleanup(ws.Close)

	fresh := postCellBytes(t, ws.URL, c)
	stored, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("store Get after a fresh cell: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(fresh, stored) {
		t.Fatalf("fresh cell: reply is not the stored bytes:\nreply  %q\nstored %q", fresh, stored)
	}
	before := srv.sched.Stats()
	repeat := postCellBytes(t, ws.URL, c)
	if after := srv.sched.Stats(); after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("repeat was not a cache hit: before %+v after %+v", before.Cache, after.Cache)
	}
	if !bytes.Equal(repeat, stored) {
		t.Fatalf("cache repeat: reply is not the stored bytes:\nreply  %q\nstored %q", repeat, stored)
	}

	prefilled, planted, _ := plantIndented(t, c)
	if got := postCellBytes(t, storeWorker(t, prefilled).URL, c); !bytes.Equal(got, planted) {
		t.Fatalf("store hit: reply is not the planted bytes:\nreply   %q\nplanted %q", got, planted)
	}
	if ts := prefilled.Stats()[0]; ts.Hits != 1 || ts.Puts != 1 {
		t.Fatalf("prefilled store = %+v, want hits=1 puts=1 (the plant only)", ts)
	}
}

// TestCoordinatorKeepsWorkerBytes pins that a Fleet with a store keeps
// exactly the bytes its worker sent: a record planted in the worker's
// store with non-canonical whitespace lands in the coordinator's store
// byte for byte, and decodes to the planted Result.
func TestCoordinatorKeepsWorkerBytes(t *testing.T) {
	c := uelfCell()
	workerStore, planted, want := plantIndented(t, c)
	coordStore := openTestStore(t)
	f, err := exec.NewFleet(exec.FleetConfig{Workers: []string{storeWorker(t, workerStore).URL},
		Store: coordStore})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fleet returned %+v, want the planted %+v", got, want)
	}
	kept, ok, err := coordStore.Get(sched.Key("cell", c))
	if err != nil || !ok {
		t.Fatalf("coordinator store Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(kept, planted) {
		t.Fatalf("coordinator stored other bytes than its worker sent:\nkept    %q\nplanted %q", kept, planted)
	}
}

// TestSingleNodeExperimentWarmRestart pins that a single-node elfd runs an
// experiment's cells through its Local and so through the store: a second
// server on the same store directory answers the whole experiment from
// disk, simulating nothing, with byte-identical JSON.
func TestSingleNodeExperimentWarmRestart(t *testing.T) {
	x, err := eval.LookupExperiment("figure-6")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func() (string, store.TierStats) {
		d, err := store.Open(store.DiskConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		rec, _ := doJSON(t, storeServer(t, d), "GET",
			"/v1/experiments/figure-6?format=json&warmup=1000&insts=4000", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("figure-6: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String(), d.Stats()[0]
	}
	cold, st := run()
	if n := uint64(len(x.Cells)); st.Puts != n {
		t.Fatalf("cold run stored %d cells, want %d", st.Puts, n)
	}
	warm, st := run()
	if n := uint64(len(x.Cells)); st.Hits != n || st.Puts != 0 {
		t.Fatalf("warm run: hits=%d puts=%d, want hits=%d puts=0", st.Hits, st.Puts, n)
	}
	if warm != cold {
		t.Fatalf("warm restart changed the answer:\ncold %s\nwarm %s", cold, warm)
	}
}
