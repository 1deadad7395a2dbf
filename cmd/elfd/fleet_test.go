package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/report"
	"elfetch/internal/workload"
)

// fleetWorker boots a full in-process elfd (scheduler + HTTP surface, its
// own metrics registry) behind httptest — a real worker, not a stub, whose
// /metrics a coordinator's federation scrapes for real families.
func fleetWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := testServer(t)
	ws := httptest.NewServer(srv)
	t.Cleanup(ws.Close)
	return ws
}

// figure6Text renders the Figure 6 grid through p as canonical text.
func figure6Text(t *testing.T, p eval.Params) string {
	t.Helper()
	tab, res, err := eval.RunExperiment(context.Background(), "figure-6", p)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	want := 2 * len(workload.FigureSet())
	if len(res) != want {
		t.Fatalf("grid has %d cells, want %d", len(res), want)
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf, report.Text); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fleetParams keeps the end-to-end grid fast: the full 20-workload
// Figure 6 grid at short run lengths.
func fleetParams() eval.Params {
	return eval.Params{Warmup: 1_000, Measure: 4_000, Parallel: 4}
}

// TestFleetFigure6ByteIdentical is the tentpole acceptance test: the
// Figure 6 grid sharded across three real in-process elfd workers must
// render byte-identically to the local backend.
func TestFleetFigure6ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	local := figure6Text(t, fleetParams())

	addrs := []string{fleetWorker(t).URL, fleetWorker(t).URL, fleetWorker(t).URL}
	f, err := exec.NewFleet(exec.FleetConfig{
		Workers:  addrs,
		Fallback: exec.NewLocal(exec.LocalConfig{}),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	p := fleetParams()
	p.Runner = f
	fleet := figure6Text(t, p)
	if fleet != local {
		t.Fatalf("fleet output differs from local:\n--- fleet ---\n%s\n--- local ---\n%s", fleet, local)
	}

	st := f.Stats()
	if st.Fallback != 0 {
		t.Fatalf("healthy fleet used the fallback %d times", st.Fallback)
	}
	for _, w := range st.Workers {
		if w.Dispatched == 0 {
			t.Errorf("worker %s never dispatched: %+v", w.Addr, st.Workers)
		}
	}
}

// TestWorkerRequestIDAndTraceRoundTrip asserts the worker side of the
// per-attempt identifiers the fleet coordinator sends: an incoming
// X-Request-ID and traceparent are echoed back on the response (success
// and error alike), and a request without an id gets a generated one.
func TestWorkerRequestIDAndTraceRoundTrip(t *testing.T) {
	srv, _ := testServer(t)
	const (
		reqID       = "0102030405060708"
		traceparent = "00-0102030405060708090a0b0c0d0e0f10-0102030405060708-01"
	)

	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set("X-Request-ID", reqID)
	req.Header.Set("Traceparent", traceparent)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID round-trip: got %q, want %q", got, reqID)
	}
	if got := rec.Header().Get("Traceparent"); got != traceparent {
		t.Errorf("traceparent round-trip: got %q, want %q", got, traceparent)
	}

	// Error responses keep the identifiers too, and the envelope names the
	// trace so a failed dispatch is greppable from either side.
	req = httptest.NewRequest("POST", "/v1/cells", bytes.NewReader([]byte("not json")))
	req.Header.Set("X-Request-ID", reqID)
	req.Header.Set("Traceparent", traceparent)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad cell: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Request-ID"); got != reqID {
		t.Errorf("error X-Request-ID round-trip: got %q, want %q", got, reqID)
	}
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("envelope not JSON: %v", err)
	}
	env, _ := decoded["error"].(map[string]any)
	if tr, _ := env["trace"].(string); tr != "0102030405060708090a0b0c0d0e0f10" {
		t.Errorf("error envelope trace = %q, want the traceparent's trace id", env["trace"])
	}

	// No incoming id: the worker mints one.
	req = httptest.NewRequest("GET", "/v1/healthz", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID generated for an anonymous request")
	}
}

// TestFleetSurvivesWorkerDeathMidRun kills one of three workers after it
// has served a couple of cells: the grid must still complete, still
// byte-identical, via quarantine and requeue.
func TestFleetSurvivesWorkerDeathMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	local := figure6Text(t, fleetParams())

	// Worker 0 dies after serving two cells: subsequent connections are
	// hijacked and slammed shut, which the fleet sees as a network error.
	mortalSrv, _ := testServer(t)
	var served atomic.Int64
	var dead atomic.Bool
	mortal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path == "/v1/cells" && served.Add(1) >= 2 {
			dead.Store(true) // die after this cell
		}
		mortalSrv.ServeHTTP(w, r)
	}))
	t.Cleanup(mortal.Close)

	addrs := []string{mortal.URL, fleetWorker(t).URL, fleetWorker(t).URL}
	f, err := exec.NewFleet(exec.FleetConfig{
		Workers:  addrs,
		Fallback: exec.NewLocal(exec.LocalConfig{}),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	p := fleetParams()
	p.Runner = f
	fleet := figure6Text(t, p)
	if fleet != local {
		t.Fatalf("fleet output differs from local after worker death:\n--- fleet ---\n%s\n--- local ---\n%s",
			fleet, local)
	}

	st := f.Stats()
	var mortalWS *exec.WorkerStats
	for i := range st.Workers {
		if st.Workers[i].Addr == mortal.URL {
			mortalWS = &st.Workers[i]
		}
	}
	if mortalWS == nil {
		t.Fatalf("mortal worker missing from stats: %+v", st.Workers)
	}
	if mortalWS.Healthy {
		t.Error("dead worker still marked healthy")
	}
	if mortalWS.Requeued == 0 {
		t.Errorf("expected requeues off the dead worker: %+v", mortalWS)
	}
	if st.Failed != 0 {
		t.Errorf("cells failed despite requeue: %+v", st)
	}
}

// countingBackend is an exec.Backend that counts the cells handed to it
// and measures them in-process.
type countingBackend struct{ cells atomic.Int64 }

func (b *countingBackend) Run(ctx context.Context, c eval.Cell) (eval.Result, error) {
	b.cells.Add(1)
	return eval.RunCell(ctx, c, nil)
}

func (b *countingBackend) Stats() exec.Stats {
	return exec.Stats{Backend: "counting", Cells: uint64(b.cells.Load())}
}

func (b *countingBackend) Close() error { return nil }

// TestCoordinatorDispatchesExperimentCells pins that a coordinator sends
// a sweep's cells through its backend like a figure's, rather than
// simulating them itself.
func TestCoordinatorDispatchesExperimentCells(t *testing.T) {
	local := exec.NewLocal(exec.LocalConfig{Workers: 2, QueueDepth: 8})
	t.Cleanup(func() { local.Close() })
	be := &countingBackend{}
	srv := newServer(local, eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{Backend: be})
	rec, _ := doJSON(t, srv, "POST", "/v1/jobs?wait=1", map[string]any{"kind": "sweep-faq"})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep-faq job: %d %s", rec.Code, rec.Body.String())
	}
	x, err := eval.LookupExperiment("sweep-faq")
	if err != nil {
		t.Fatal(err)
	}
	if got := be.cells.Load(); got != int64(len(x.Cells)) {
		t.Fatalf("backend ran %d cells, want all %d", got, len(x.Cells))
	}
}
