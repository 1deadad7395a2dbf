package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/sched"
)

// newTestServer builds a single-node server the way cmd/elfd's main
// does: newBackend's Local, sized by cfg, runs every job and cell on one
// scheduler, and is closed at cleanup.
func newTestServer(t *testing.T, cfg exec.LocalConfig, defaults eval.Params, opt serverOptions) *server {
	t.Helper()
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	local, be, err := newBackend(opt, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	opt.Backend = be
	return newServer(local, defaults, opt)
}

// testServer builds a server over four workers with tiny default run
// lengths so handler tests stay fast, and returns its scheduler.
func testServer(t *testing.T) (*server, *sched.Scheduler) {
	t.Helper()
	srv := newTestServer(t, exec.LocalConfig{Workers: 4, QueueDepth: 64},
		eval.Params{Warmup: 2_000, Measure: 10_000}, serverOptions{})
	return srv, srv.sched
}

func doJSON(t *testing.T, h http.Handler, method, target string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var r *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(b)
	} else {
		r = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]any
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("decoding %s %s response: %v\n%s", method, target, err, rec.Body.String())
		}
	}
	return rec, decoded
}

func TestSubmitPollResult(t *testing.T) {
	srv, _ := testServer(t)
	rec, st := doJSON(t, srv, "POST", "/v1/jobs",
		map[string]any{"workload": "641.leela_s", "variant": "uelf"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	id, _ := st["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", st)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		rec, st = doJSON(t, srv, "GET", "/v1/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll: %d %s", rec.Code, rec.Body.String())
		}
		state, _ := st["state"].(string)
		if state == string(sched.Done) {
			break
		}
		if state == string(sched.Failed) || state == string(sched.Canceled) {
			t.Fatalf("job ended %s: %v", state, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	result, _ := st["result"].(map[string]any)
	if result["config"] != "U-ELF" || result["workload"] != "641.leela_s" {
		t.Fatalf("result identity: %v", result)
	}
	if ipc, _ := result["ipc"].(float64); ipc <= 0 {
		t.Fatalf("implausible IPC in %v", result)
	}
}

func TestSubmitWaitServesCacheSecondTime(t *testing.T) {
	srv, s := testServer(t)
	body := map[string]any{"workload": "401.bzip2", "variant": "lelf"}

	rec, st1 := doJSON(t, srv, "POST", "/v1/jobs?wait=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("first submit: %d %s", rec.Code, rec.Body.String())
	}
	if cached, _ := st1["cached"].(bool); cached {
		t.Fatal("first submission claims cached")
	}

	rec, st2 := doJSON(t, srv, "POST", "/v1/jobs?wait=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("second submit: %d %s", rec.Code, rec.Body.String())
	}
	if cached, _ := st2["cached"].(bool); !cached {
		t.Fatalf("second submission not served from cache: %v", st2)
	}
	r1, _ := json.Marshal(st1["result"])
	r2, _ := json.Marshal(st2["result"])
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cached result differs:\n%s\n%s", r1, r2)
	}
	if hits := s.Stats().Cache.Hits; hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// The hit must be visible in /debug/stats.
	rec, stats := doJSON(t, srv, "GET", "/debug/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	schedStats, _ := stats["scheduler"].(map[string]any)
	cache, _ := schedStats["cache"].(map[string]any)
	if hits, _ := cache["hits"].(float64); hits != 1 {
		t.Errorf("/debug/stats cache hits = %v", cache)
	}
	if rate, _ := stats["cacheHitRate"].(float64); rate <= 0 {
		t.Errorf("cacheHitRate = %v", stats["cacheHitRate"])
	}
}

func TestSubmitCustomWorkloadJSON(t *testing.T) {
	srv, _ := testServer(t)
	profile := map[string]any{"name": "mini", "funcs": 4, "blocksPerFunc": 3, "blockInsts": 6}
	rec, st := doJSON(t, srv, "POST", "/v1/jobs?wait=1",
		map[string]any{"workloadJSON": profile, "variant": "dcf"})
	if rec.Code != http.StatusOK {
		t.Fatalf("custom workload: %d %s", rec.Code, rec.Body.String())
	}
	result, _ := st["result"].(map[string]any)
	if result["workload"] != "mini" || result["suite"] != "custom" {
		t.Fatalf("custom result: %v", result)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		name string
		code int
		body map[string]any
	}{
		{"bad variant", http.StatusBadRequest,
			map[string]any{"workload": "641.leela_s", "variant": "zelf"}},
		{"unknown workload", http.StatusNotFound,
			map[string]any{"workload": "does-not-exist"}},
		{"no workload", http.StatusBadRequest, map[string]any{"variant": "uelf"}},
		{"bad kind", http.StatusBadRequest, map[string]any{"kind": "explode"}},
		{"bad figure", http.StatusBadRequest, map[string]any{"kind": "figure-4"}},
		{"zero measure", http.StatusBadRequest,
			map[string]any{"workload": "641.leela_s", "measure": 0}},
		{"both workloads", http.StatusBadRequest,
			map[string]any{"workload": "641.leela_s", "workloadJSON": map[string]any{"name": "x"}}},
		{"bad profile", http.StatusBadRequest,
			map[string]any{"workloadJSON": map[string]any{"memKind": "warp-drive"}}},
		{"unknown field", http.StatusBadRequest, map[string]any{"wrkload": "oops"}},
	}
	for _, c := range cases {
		rec, _ := doJSON(t, srv, "POST", "/v1/jobs", c.body)
		if rec.Code != c.code {
			t.Errorf("%s: code = %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
}

func TestCancelEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	// A long job: cancellation must interrupt it long before it finishes.
	rec, st := doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"workload": "641.leela_s", "warmup": 0, "measure": 500_000_000,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	id := st["id"].(string)
	rec, st = doJSON(t, srv, "DELETE", "/v1/jobs/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d", rec.Code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, st = doJSON(t, srv, "GET", "/v1/jobs/"+id, nil)
		if st["state"] == string(sched.Canceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not cancelled: %v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientAbortCancelsWaitedJob(t *testing.T) {
	srv, s := testServer(t)
	body, _ := json.Marshal(map[string]any{
		"workload": "641.leela_s", "warmup": 0, "measure": 500_000_000,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond) // let the job start
	cancel()                          // client hangs up
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after client abort")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never recorded the cancel: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest("GET", "/v1/workloads", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("workloads: %d", rec.Code)
	}
	var list []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, wl := range list {
		names[wl["name"].(string)] = true
	}
	for _, want := range []string{"641.leela_s", "server1_subtest_1", "401.bzip2"} {
		if !names[want] {
			t.Errorf("workload list missing %s", want)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	srv, _ := testServer(t)
	for _, method := range []string{"GET", "DELETE"} {
		rec, _ := doJSON(t, srv, method, "/v1/jobs/j999999", nil)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s unknown job: %d", method, rec.Code)
		}
	}
}

func TestFigureEndpointBadInputs(t *testing.T) {
	srv, _ := testServer(t)
	for target, want := range map[string]int{
		"/v1/experiments/figure-5":               http.StatusBadRequest,
		"/v1/experiments/abc":                    http.StatusBadRequest,
		"/v1/experiments/run":                    http.StatusBadRequest,
		"/v1/experiments/figure-8?format=xml":    http.StatusBadRequest,
		"/v1/experiments/figure-8?warmup=banana": http.StatusBadRequest,
	} {
		rec, _ := doJSON(t, srv, "GET", target, nil)
		if rec.Code != want {
			t.Errorf("%s: code = %d, want %d", target, rec.Code, want)
		}
	}
}

func TestFigureEndpointEndToEndWithCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure matrix")
	}
	srv, s := testServer(t)
	target := "/v1/experiments/figure-8?warmup=1000&insts=4000&format=json"

	rec, body := doJSON(t, srv, "GET", target, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("figure: %d %s", rec.Code, rec.Body.String())
	}
	table, _ := body["table"].(map[string]any)
	if title, _ := table["title"].(string); !strings.Contains(title, "Figure 8") {
		t.Fatalf("table title: %v", table["title"])
	}
	first := rec.Body.String()

	// Second request: identical payload, served from cache.
	rec, _ = doJSON(t, srv, "GET", target, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("figure rerun: %d", rec.Code)
	}
	if rec.Body.String() != first {
		t.Error("cached figure differs from the original run")
	}
	if hits := s.Stats().Cache.Hits; hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// Text rendering of the same cached figure.
	rec, _ = doJSON(t, srv, "GET", "/v1/experiments/figure-8?warmup=1000&insts=4000&format=text", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Figure 8") {
		t.Fatalf("text figure: %d %s", rec.Code, rec.Body.String())
	}
}

func TestDebugStatsShape(t *testing.T) {
	srv, _ := testServer(t)
	rec, stats := doJSON(t, srv, "GET", "/debug/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	schedStats, ok := stats["scheduler"].(map[string]any)
	if !ok {
		t.Fatalf("no scheduler block: %v", stats)
	}
	for _, key := range []string{"workers", "queueDepth", "queued", "running", "submitted"} {
		if _, ok := schedStats[key]; !ok {
			t.Errorf("scheduler stats missing %q", key)
		}
	}
	if _, ok := stats["variantRuns"]; !ok {
		t.Error("stats missing variantRuns")
	}
}

// TestRunCountsArePerServer pins that /debug/stats variantRuns reads the
// server's own elfd_runs_total counters: a run on one server leaves
// another server in the same process at zero.
func TestRunCountsArePerServer(t *testing.T) {
	first, _ := testServer(t)
	second, _ := testServer(t)
	rec, _ := doJSON(t, first, "POST", "/v1/jobs?wait=1",
		map[string]any{"workload": "641.leela_s", "variant": "uelf"})
	if rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body.String())
	}
	_, stats := doJSON(t, first, "GET", "/debug/stats", nil)
	if got := stats["variantRuns"]; !reflect.DeepEqual(got, map[string]any{"U-ELF": 1.0}) {
		t.Errorf("first server variantRuns = %v, want {U-ELF: 1}", got)
	}
	_, stats = doJSON(t, second, "GET", "/debug/stats", nil)
	if got := stats["variantRuns"]; !reflect.DeepEqual(got, map[string]any{}) {
		t.Errorf("second server variantRuns = %v, want empty", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q is not Prometheus text format", ct)
	}
	body := rec.Body.String()
	// The pipeline probe histograms must be registered before any job runs.
	for _, want := range []string{
		"# TYPE elf_flush_recovery_cycles histogram",
		`elf_flush_recovery_cycles_bucket{le="+Inf"}`,
		"elf_faq_occupancy_blocks_count",
		"elf_coupled_residency_cycles_sum",
		"elfd_http_requests_total",
		"elfd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID header")
	}
}

func TestMetricsObserveSimulations(t *testing.T) {
	srv, _ := testServer(t)
	rec, _ := doJSON(t, srv, "POST", "/v1/jobs?wait=1",
		map[string]any{"workload": "641.leela_s", "variant": "uelf"})
	if rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, req)
	body := mrec.Body.String()
	if !strings.Contains(body, "elf_faq_occupancy_blocks_count") {
		t.Fatalf("no FAQ occupancy family:\n%s", body)
	}
	// The run must have fed the probe: occupancy is sampled periodically,
	// so a 10k-cycle-plus run cannot leave the histogram empty.
	var count float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "elf_faq_occupancy_blocks_count") {
			fmt.Sscanf(line, "elf_faq_occupancy_blocks_count %g", &count)
		}
	}
	if count == 0 {
		t.Error("simulation left elf_faq_occupancy_blocks empty; probe not attached")
	}
	if !strings.Contains(body, `elfd_runs_total{config="U-ELF"} 1`) {
		t.Error("metrics missing per-config run counter")
	}
}

func TestStatsHitRateZeroBeforeTraffic(t *testing.T) {
	srv, _ := testServer(t)
	rec, stats := doJSON(t, srv, "GET", "/debug/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	// Before any request the hit rate must be exactly 0, never NaN (NaN
	// does not survive json.Marshal and would 500 the endpoint).
	rate, ok := stats["cacheHitRate"].(float64)
	if !ok || rate != 0 {
		t.Errorf("pre-traffic cacheHitRate = %v, want 0", stats["cacheHitRate"])
	}
	schedStats, _ := stats["scheduler"].(map[string]any)
	if _, ok := schedStats["queueHighWater"]; !ok {
		t.Error("scheduler stats missing queueHighWater")
	}
}

func TestTraceEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	rec, st := doJSON(t, srv, "POST", "/v1/jobs?wait=1",
		map[string]any{"workload": "641.leela_s", "variant": "uelf", "trace": true, "traceMax": 512})
	if rec.Code != http.StatusOK {
		t.Fatalf("traced run: %d %s", rec.Code, rec.Body.String())
	}
	id, _ := st["id"].(string)
	traced, _ := st["result"].(map[string]any)
	if traced["traceJSON"] != nil || traced["TraceJSON"] != nil {
		t.Error("trace payload leaked into the job status JSON")
	}

	// Tracing observes the run without perturbing it: the traced result
	// equals the untraced run's for the same workload and variant.
	rec, plain := doJSON(t, srv, "POST", "/v1/jobs?wait=1",
		map[string]any{"workload": "641.leela_s", "variant": "uelf"})
	if rec.Code != http.StatusOK {
		t.Fatalf("untraced uelf run: %d %s", rec.Code, rec.Body.String())
	}
	if untraced, _ := plain["result"].(map[string]any); len(traced) == 0 || !reflect.DeepEqual(traced, untraced) {
		t.Errorf("traced result differs from the untraced run:\n traced   %v\n untraced %v", traced, untraced)
	}

	rec, _ = doJSON(t, srv, "GET", "/v1/jobs/"+id+"/trace", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", rec.Code, rec.Body.String())
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) < 5 {
		t.Fatalf("implausibly small trace: %d events", len(trace.TraceEvents))
	}

	// An untraced job must 404 on the trace endpoint.
	rec, st = doJSON(t, srv, "POST", "/v1/jobs?wait=1",
		map[string]any{"workload": "641.leela_s"})
	if rec.Code != http.StatusOK {
		t.Fatalf("untraced run: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "GET", "/v1/jobs/"+st["id"].(string)+"/trace", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("untraced job trace fetch: %d, want 404", rec.Code)
	}

	// Trace on a non-run kind is a 400.
	rec, _ = doJSON(t, srv, "POST", "/v1/jobs",
		map[string]any{"kind": "figure-8", "trace": true})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("trace on figure kind: %d, want 400", rec.Code)
	}
}
