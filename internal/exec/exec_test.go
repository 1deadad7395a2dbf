package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
)

// testCell is a small real measurement: big enough to exercise the sim,
// small enough to keep the suite fast.
func testCell() eval.Cell {
	return eval.Cell{
		Workload: "641.leela_s",
		Config:   pipeline.DefaultConfig(),
		Warmup:   1_000,
		Measure:  4_000,
	}
}

// cellMux is an in-process stand-in for elfd's worker surface: it serves
// POST /v1/cells by running the cell for real (the sim core is
// deterministic, so its results are interchangeable with any worker's)
// and GET /v1/healthz with 200.
func cellMux(t *testing.T) *http.ServeMux {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var c eval.Cell
		if err := json.NewDecoder(r.Body).Decode(&c); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := eval.RunCell(r.Context(), c, nil)
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]map[string]string{
				"error": {"code": "sim_failed", "message": err.Error()},
			})
			return
		}
		json.NewEncoder(w).Encode(res)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

func TestLocalRunAndCache(t *testing.T) {
	l := NewLocal(LocalConfig{Workers: 2})
	defer l.Close()
	c := testCell()

	r1, err := l.Run(context.Background(), c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Committed == 0 || r1.IPC <= 0 {
		t.Fatalf("implausible result: %+v", r1)
	}
	r2, err := l.Run(context.Background(), c)
	if err != nil {
		t.Fatalf("repeat Run: %v", err)
	}
	if r1 != r2 {
		t.Fatalf("repeat run differs: %+v vs %+v", r1, r2)
	}
	st := l.Stats()
	if st.Backend != "local" || st.Cells != 2 || st.Failed != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Scheduler == nil || st.Scheduler.Cache.Hits == 0 {
		t.Fatalf("second identical cell should hit the result cache: %+v", st.Scheduler)
	}
}

func TestLocalRejectsInvalidCell(t *testing.T) {
	l := NewLocal(LocalConfig{Workers: 1})
	defer l.Close()
	if _, err := l.Run(context.Background(), eval.Cell{}); err == nil {
		t.Fatal("empty cell should fail validation")
	}
	if _, err := l.Run(context.Background(), eval.Cell{Workload: "no-such-workload",
		Config: pipeline.DefaultConfig(), Measure: 1_000}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestFleetShardsAcrossWorkers(t *testing.T) {
	var hits [3]atomic.Int64
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		i := i
		mux := cellMux(t)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" {
				hits[i].Add(1)
			}
			mux.ServeHTTP(w, r)
		}))
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.URL)
	}
	_ = servers

	f, err := NewFleet(FleetConfig{Workers: addrs})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	want, err := eval.RunCell(context.Background(), testCell(), nil)
	if err != nil {
		t.Fatalf("local reference run: %v", err)
	}
	// Vary warmup so each cell is distinct (no worker-side cache merging).
	for i := 0; i < 6; i++ {
		c := testCell()
		c.Warmup += uint64(i)
		got, err := f.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("fleet Run %d: %v", i, err)
		}
		if i == 0 && got != want {
			t.Fatalf("fleet result differs from local:\n got  %+v\n want %+v", got, want)
		}
	}
	for i := range hits {
		if hits[i].Load() == 0 {
			t.Fatalf("round-robin left worker %d idle: %v %v %v",
				i, hits[0].Load(), hits[1].Load(), hits[2].Load())
		}
	}
	st := f.Stats()
	if st.Backend != "fleet" || st.Cells != 6 || st.Failed != 0 || st.Fallback != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestFleetQuarantinesAndRequeues covers a worker that fails a cell in a
// way that blames it: a 5xx, a 200 whose body does not decode, and a 200
// longer than maxReplyBytes (a Result padded with whitespace, which would
// decode without the bound). Each time that worker is quarantined, its
// cell is requeued onto the healthy worker and every Result is
// eval.RunCell's.
func TestFleetQuarantinesAndRequeues(t *testing.T) {
	ctx := context.Background()
	reply := func(body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { w.Write(body) }
	}
	for _, tc := range []struct {
		name string
		bad  http.HandlerFunc
	}{
		{"5xx", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}},
		{"200 garbage", reply([]byte("not a result"))},
		{"200 over the read bound", reply(append(bytes.Repeat([]byte(" "), maxReplyBytes), `{"ipc":1}`...))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := httptest.NewServer(tc.bad)
			defer bad.Close()
			good := httptest.NewServer(cellMux(t))
			defer good.Close()

			f, err := NewFleet(FleetConfig{
				Workers:        []string{bad.URL, good.URL},
				HealthInterval: time.Hour, // keep the prober from reviving bad mid-test
			})
			if err != nil {
				t.Fatalf("NewFleet: %v", err)
			}
			defer f.Close()

			// Run enough distinct cells that round-robin is guaranteed to
			// hand at least one to the bad worker first.
			for i := 0; i < 3; i++ {
				c := testCell()
				c.Warmup += uint64(i)
				got, err := f.Run(ctx, c)
				if err != nil {
					t.Fatalf("Run %d should recover via requeue: %v", i, err)
				}
				if want, err := eval.RunCell(ctx, c, nil); err != nil || got != want {
					t.Fatalf("Run %d = %+v, want eval.RunCell's %+v (err %v)", i, got, want, err)
				}
			}
			st := f.Stats()
			var badWS, goodWS *WorkerStats
			for i := range st.Workers {
				switch st.Workers[i].Addr {
				case bad.URL:
					badWS = &st.Workers[i]
				case good.URL:
					goodWS = &st.Workers[i]
				}
			}
			if badWS == nil || goodWS == nil {
				t.Fatalf("missing worker stats: %+v", st.Workers)
			}
			if badWS.Healthy {
				t.Fatal("failing worker should be quarantined")
			}
			if badWS.Requeued == 0 {
				t.Fatalf("expected requeues off the failing worker: %+v", badWS)
			}
			if goodWS.Dispatched == 0 || !goodWS.Healthy {
				t.Fatalf("healthy worker should have absorbed the cells: %+v", goodWS)
			}
			if st.Failed != 0 || st.Fallback != 0 {
				t.Fatalf("no cell should fail or fall back: %+v", st)
			}
		})
	}
}

func TestFleetPermanentErrorDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]map[string]string{
			"error": {"code": "bad_request", "message": "no such workload"},
		})
	}))
	defer srv.Close()

	f, err := NewFleet(FleetConfig{Workers: []string{srv.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	if _, err := f.Run(context.Background(), testCell()); err == nil {
		t.Fatal("4xx must surface as a permanent error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("permanent error retried: %d dispatches", n)
	}
	if st := f.Stats(); st.Failed != 1 || !st.Workers[0].Healthy {
		t.Fatalf("permanent error must not quarantine the worker: %+v", st)
	}
}

func TestFleetFallsBackWhenFleetDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // address now refuses connections

	f, err := NewFleet(FleetConfig{
		Workers:        []string{dead.URL},
		Fallback:       NewLocal(LocalConfig{Workers: 1}),
		HealthInterval: time.Hour,
		MaxAttempts:    2,
		RetryBase:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	r, err := f.Run(context.Background(), testCell())
	if err != nil {
		t.Fatalf("Run should degrade to the local fallback: %v", err)
	}
	if r.Committed == 0 {
		t.Fatalf("implausible fallback result: %+v", r)
	}
	st := f.Stats()
	if st.Fallback == 0 {
		t.Fatalf("fallback counter not incremented: %+v", st)
	}
	if st.Workers[0].Healthy {
		t.Fatal("dead worker should be quarantined")
	}
}

func TestFleetHealthProbeRevivesWorker(t *testing.T) {
	var healthy atomic.Bool
	mux := cellMux(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" && !healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	f, err := NewFleet(FleetConfig{
		Workers:        []string{srv.URL},
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	// Probe sees 503 → quarantine.
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Workers[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("prober never quarantined the draining worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Worker recovers → prober revives it.
	healthy.Store(true)
	for !f.Stats().Workers[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("prober never revived the recovered worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := f.Run(context.Background(), testCell()); err != nil {
		t.Fatalf("Run after revival: %v", err)
	}
}

func TestFleetExhaustedWithoutFallbackFails(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusServiceUnavailable)
	}))
	defer busy.Close()

	f, err := NewFleet(FleetConfig{
		Workers:        []string{busy.URL},
		MaxAttempts:    2,
		RetryBase:      time.Millisecond,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	if _, err := f.Run(context.Background(), testCell()); err == nil {
		t.Fatal("exhausted retries with no fallback must fail the cell")
	}
	st := f.Stats()
	if st.Failed != 1 {
		t.Fatalf("expected one failed cell: %+v", st)
	}
	// 503 is overload, not breakage: the worker must not be quarantined.
	if !st.Workers[0].Healthy {
		t.Fatal("503 must not quarantine the worker")
	}
	if st.Workers[0].Retried == 0 {
		t.Fatalf("expected retries recorded: %+v", st.Workers[0])
	}
}
