package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
)

// coordinator assembles the full coordinator wiring — fleet backend,
// shared span log and flight recorder, metrics federation — exactly as
// cmd/elfd's main does, and returns the pieces the test asserts on.
type coordinator struct {
	srv    *server
	fed    *obs.Federation
	spans  *obs.SpanLog
	events *obs.Ring
}

func newCoordinator(t *testing.T, addrs []string) *coordinator {
	t.Helper()
	reg := obs.NewRegistry()
	opt := serverOptions{Metrics: reg, Events: obs.NewRing(0), Spans: obs.NewSpanLog(0)}
	local, be, err := newBackend(opt, addrs, exec.LocalConfig{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatalf("newBackend: %v", err)
	}
	t.Cleanup(func() { be.Close() })
	opt.Backend = be
	opt.Federation = obs.NewFederation(obs.FederationConfig{Workers: addrs, Metrics: reg})
	srv := newServer(local, eval.Params{Warmup: 1_000, Measure: 4_000, Parallel: 4}, opt)
	return &coordinator{srv: srv, fed: opt.Federation, spans: opt.Spans, events: opt.Events}
}

// figureJobResult runs a figure-6 job to completion through a server's
// HTTP surface and returns the result payload re-marshalled to canonical
// JSON (the job envelope around it carries timings, so only the payload
// is comparable across servers).
func figureJobResult(t *testing.T, h http.Handler) string {
	t.Helper()
	w, m := uint64(1_000), uint64(4_000)
	rec, decoded := doJSON(t, h, "POST", "/v1/jobs?wait=1",
		jobRequest{Kind: "figure-6", Warmup: &w, Measure: &m})
	if rec.Code != http.StatusOK {
		t.Fatalf("figure job: %d %s", rec.Code, rec.Body.String())
	}
	res, ok := decoded["result"]
	if !ok {
		t.Fatalf("no result in job status: %v", decoded)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetObservabilityE2E is the acceptance test for DESIGN.md §14: a
// coordinator over three real in-process workers (one of which is killed
// mid-run) must produce byte-identical results to a single-node server,
// serve a federated /metrics with per-worker labels, stitch the whole
// grid into a single trace on /debug/trace, and hold the worker-kill
// fallout in /debug/events.
func TestFleetObservabilityE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	// Single-node baseline. The coordinator must reproduce this payload
	// byte-for-byte despite sharding, retries and a mid-run worker death.
	baseline, _ := testServer(t)
	local := figureJobResult(t, baseline)

	// Worker 0 dies after serving two cells: subsequent connections are
	// hijacked and slammed shut, which the fleet sees as a network error
	// and the federation as a failed scrape.
	mortalInner := fleetWorker(t)
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
			dead.Store(true)
		}
		mortalProxy(mortalInner, w, r)
	}))
	t.Cleanup(mortal.Close)

	addrs := []string{mortal.URL, fleetWorker(t).URL, fleetWorker(t).URL}
	co := newCoordinator(t, addrs)

	fleet := figureJobResult(t, co.srv)
	if fleet != local {
		t.Fatalf("fleet result differs from local:\n--- fleet ---\n%s\n--- local ---\n%s", fleet, local)
	}

	// Federation: scrape after the run (the e2e owns the cadence) and
	// assert the merged view — worker="all" aggregates, per-worker rows
	// for the live workers, and the dead worker marked down.
	co.fed.Scrape(context.Background())
	rec := httptest.NewRecorder()
	co.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	metrics := rec.Body.String()
	for _, want := range []string{
		`elfd_http_requests_total{code="2xx",worker="all"}`,
		`elfd_http_requests_total{code="2xx",worker="` + addrs[1] + `"}`,
		`elfd_http_requests_total{code="2xx",worker="` + addrs[2] + `"}`,
		`elf_fed_worker_up{worker="` + mortal.URL + `"} 0`,
		`elf_fed_worker_up{worker="` + addrs[1] + `"} 1`,
		`elf_exec_hop_seconds_count{outcome="ok"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("fleet /metrics missing %q", want)
		}
	}

	// Trace: one figure grid = one stitched trace. Every span — grid
	// root, cells, dispatches — must share a single TraceID.
	rec = httptest.NewRecorder()
	co.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", rec.Code)
	}
	spans, err := obs.ReadSpansJSON(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("span JSON: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the grid run")
	}
	traces := map[obs.TraceID]bool{}
	var grids, cells int
	for _, sp := range spans {
		traces[sp.Trace] = true
		switch sp.Name {
		case "figure-6":
			grids++
		case "cell":
			cells++
		}
	}
	if len(traces) != 1 {
		t.Errorf("grid run produced %d traces, want exactly 1", len(traces))
	}
	if grids != 1 {
		t.Errorf("grid root spans = %d, want 1", grids)
	}
	if cells == 0 {
		t.Error("no cell spans in the trace")
	}

	// The Chrome export renders coordinator and workers on one timeline.
	rec = httptest.NewRecorder()
	co.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=chrome&canonical=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace?format=chrome: %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) <= len(spans) {
		t.Errorf("chrome export has %d events for %d spans (want spans + process metadata)",
			len(chrome.TraceEvents), len(spans))
	}

	// Flight recorder: the induced worker kill must have left quarantine
	// and requeue events behind, all on the grid's trace.
	rec = httptest.NewRecorder()
	co.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/events: %d", rec.Code)
	}
	var events []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("events not JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/debug/events empty after induced worker kill")
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[obs.EventQuarantine] == 0 || kinds[obs.EventRequeue] == 0 {
		t.Errorf("worker kill left no quarantine/requeue events: %v", kinds)
	}
	if kinds[obs.EventDispatch] == 0 {
		t.Errorf("no dispatch events recorded: %v", kinds)
	}

	// /debug/events?n= bounds the dump.
	rec = httptest.NewRecorder()
	co.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?n=3", nil))
	var bounded []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &bounded); err != nil {
		t.Fatalf("bounded events not JSON: %v", err)
	}
	if len(bounded) != 3 {
		t.Errorf("/debug/events?n=3 returned %d events", len(bounded))
	}

	// /debug/stats carries the per-worker federation breakdown.
	rec = httptest.NewRecorder()
	co.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
	var stats struct {
		Federation  []obs.FedWorker `json:"federation"`
		EventsTotal uint64          `json:"eventsTotal"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("/debug/stats not JSON: %v", err)
	}
	if len(stats.Federation) != 3 {
		t.Fatalf("federation summary has %d workers, want 3: %+v", len(stats.Federation), stats.Federation)
	}
	for _, w := range stats.Federation {
		wantUp := w.Addr != mortal.URL
		if w.Up != wantUp {
			t.Errorf("worker %s up=%v, want %v", w.Addr, w.Up, wantUp)
		}
	}
	if stats.EventsTotal == 0 {
		t.Error("eventsTotal is zero despite recorded events")
	}
}

// mortalProxy forwards to the inner worker's handler. Split out so the
// mortal wrapper above stays readable.
func mortalProxy(inner *httptest.Server, w http.ResponseWriter, r *http.Request) {
	inner.Config.Handler.ServeHTTP(w, r)
}
