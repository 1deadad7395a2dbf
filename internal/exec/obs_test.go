package exec

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"elfetch/internal/obs"
)

// TestFleetTraceAndRequestIDPropagation asserts the wire side of trace
// propagation: every POST /v1/cells carries a parseable traceparent whose
// TraceID is the grid's, and an X-Request-ID equal to the attempt span's
// ID — one fresh ID per attempt.
func TestFleetTraceAndRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	var traceparents, requestIDs []string
	mux := cellMux(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cells" {
			mu.Lock()
			traceparents = append(traceparents, r.Header.Get(obs.TraceparentHeader))
			requestIDs = append(requestIDs, r.Header.Get("X-Request-ID"))
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	spans := obs.NewSpanLog(0)
	f, err := NewFleet(FleetConfig{Workers: []string{srv.URL}, Spans: spans, HealthInterval: time.Hour})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	root := spans.StartSpan(nil, "grid")
	ctx := obs.ContextWithSpan(context.Background(), root)
	for i := 0; i < 2; i++ {
		c := testCell()
		c.Warmup += uint64(i)
		if _, err := f.Run(ctx, c); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	root.Finish()

	mu.Lock()
	defer mu.Unlock()
	if len(traceparents) != 2 {
		t.Fatalf("saw %d dispatches, want 2", len(traceparents))
	}
	seenIDs := map[string]bool{}
	for i, tp := range traceparents {
		tr, sp, ok := obs.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("dispatch %d: unparseable traceparent %q", i, tp)
		}
		if tr != root.Trace {
			t.Errorf("dispatch %d: trace %s, want grid trace %s", i, tr, root.Trace)
		}
		if requestIDs[i] != sp.String() {
			t.Errorf("dispatch %d: X-Request-ID %q != span id %s", i, requestIDs[i], sp)
		}
		if seenIDs[requestIDs[i]] {
			t.Errorf("dispatch %d: request id %q reused across attempts", i, requestIDs[i])
		}
		seenIDs[requestIDs[i]] = true
	}

	// Span topology: every cell span is a child of the grid root, every
	// dispatch span a child of its cell span, all under one TraceID.
	byID := map[obs.SpanID]obs.Span{}
	for _, s := range spans.Snapshot() {
		byID[s.ID] = s
	}
	var cells, dispatches int
	for _, s := range byID {
		if s.Trace != root.Trace {
			t.Errorf("span %s has trace %s, want %s", s.Name, s.Trace, root.Trace)
		}
		switch s.Name {
		case "cell":
			cells++
			if s.Parent != root.ID {
				t.Errorf("cell span parented to %s, want grid %s", s.Parent, root.ID)
			}
		case "dispatch":
			dispatches++
			parent, ok := byID[s.Parent]
			if !ok || parent.Name != "cell" {
				t.Errorf("dispatch span parented to %v, want a cell span", s.Parent)
			}
			if s.Worker != srv.URL {
				t.Errorf("dispatch span worker %q, want %q", s.Worker, srv.URL)
			}
		}
	}
	if cells != 2 || dispatches != 2 {
		t.Errorf("span census: %d cells, %d dispatches, want 2 and 2", cells, dispatches)
	}
}

// TestFleetRetrySpansAndEvents drives a quarantine-and-requeue through a
// failing worker and asserts the retry shows up everywhere it should:
// as an extra child dispatch span with an error, as quarantine/requeue
// flight-recorder events, and in the outcome-split hop histogram.
func TestFleetRetrySpansAndEvents(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(cellMux(t))
	defer good.Close()

	spans := obs.NewSpanLog(0)
	events := obs.NewRing(64)
	reg := obs.NewRegistry()
	f, err := NewFleet(FleetConfig{
		Workers:        []string{bad.URL, good.URL},
		Spans:          spans,
		Events:         events,
		Metrics:        reg,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	root := spans.StartSpan(nil, "grid")
	ctx := obs.ContextWithSpan(context.Background(), root)
	for i := 0; i < 3; i++ {
		c := testCell()
		c.Warmup += uint64(i)
		if _, err := f.Run(ctx, c); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	root.Finish()

	var errSpans int
	for _, s := range spans.Snapshot() {
		if s.Name == "dispatch" && s.Err != "" {
			errSpans++
			if s.Worker != bad.URL {
				t.Errorf("failed dispatch span names worker %q, want %q", s.Worker, bad.URL)
			}
			if s.Trace != root.Trace {
				t.Errorf("failed dispatch span off-trace: %s", s.Trace)
			}
		}
	}
	if errSpans == 0 {
		t.Error("no failed dispatch span recorded for the quarantined attempt")
	}

	kinds := map[string]int{}
	for _, e := range events.Snapshot(0) {
		kinds[e.Kind]++
		if e.Trace != root.Trace.String() {
			t.Errorf("event %s carries trace %q, want %s", e.Kind, e.Trace, root.Trace)
		}
	}
	if kinds[obs.EventDispatch] != 3 {
		t.Errorf("dispatch events = %d, want 3", kinds[obs.EventDispatch])
	}
	if kinds[obs.EventQuarantine] == 0 || kinds[obs.EventRequeue] == 0 {
		t.Errorf("quarantine/requeue events missing: %v", kinds)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`elf_exec_hop_seconds_count{outcome="ok"} 3`,
		`elf_exec_hop_seconds_count{outcome="requeue"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("hop histogram missing %q:\n%s", want, sb.String())
		}
	}

	// Each worker's ledger is its exposed series: Stats and /metrics read
	// the same counters and the same health bit.
	ws := f.Stats().Workers
	if len(ws) != 2 || ws[0].Healthy || ws[0].Requeued != 1 || ws[0].Retried != 1 ||
		!ws[1].Healthy || ws[1].Dispatched != 3 {
		t.Fatalf("worker ledgers = %+v, want the bad worker quarantined once and the good one serving 3", ws)
	}
	for _, w := range ws {
		healthy := 0
		if w.Healthy {
			healthy = 1
		}
		for series, v := range map[string]uint64{
			"elf_exec_cells_dispatched_total": w.Dispatched,
			"elf_exec_cells_retried_total":    w.Retried,
			"elf_exec_cells_requeued_total":   w.Requeued,
			"elf_exec_worker_healthy":         uint64(healthy),
		} {
			line := fmt.Sprintf("\n%s{worker=%q} %d\n", series, w.Addr, v)
			if !strings.Contains(sb.String(), line) {
				t.Errorf("exposition lacks %q", strings.TrimSpace(line))
			}
		}
	}
}

func TestLocalEventsCacheHitMissAndSlowCell(t *testing.T) {
	events := obs.NewRing(16)
	l := NewLocal(LocalConfig{Workers: 1, Events: events, SlowCell: time.Nanosecond})
	defer l.Close()

	c := testCell()
	for i := 0; i < 2; i++ {
		if _, err := l.Run(context.Background(), c); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	kinds := map[string]int{}
	for _, e := range events.Snapshot(0) {
		kinds[e.Kind]++
		if e.Worker != "local" {
			t.Errorf("local event names worker %q", e.Worker)
		}
	}
	if kinds[obs.EventCacheMiss] != 1 || kinds[obs.EventCacheHit] != 1 {
		t.Errorf("cache events = %v, want one miss then one hit", kinds)
	}
	// Any real simulation exceeds a 1ns threshold; the cached repeat must
	// not re-trigger it.
	if kinds[obs.EventSlowCell] != 1 {
		t.Errorf("slow_cell events = %d, want 1: %v", kinds[obs.EventSlowCell], kinds)
	}
}

// TestFleetSpanStitchCanonicalExportDeterministic runs the same cell
// sequence twice against the same 3-worker fleet, each pass with a fresh
// unseeded span log, and asserts the canonical Chrome exports are
// byte-identical: counter-allocated IDs plus logical timestamps make the
// stitched trace a golden-diffable artifact.
func TestFleetSpanStitchCanonicalExportDeterministic(t *testing.T) {
	var workers []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(cellMux(t))
		t.Cleanup(srv.Close)
		workers = append(workers, srv.URL)
	}

	export := func() string {
		spans := obs.NewSpanLog(0)
		f, err := NewFleet(FleetConfig{Workers: workers, Spans: spans, HealthInterval: time.Hour})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		defer f.Close()
		root := spans.StartSpan(nil, "grid")
		ctx := obs.ContextWithSpan(context.Background(), root)
		for i := 0; i < 4; i++ {
			c := testCell()
			c.Warmup += uint64(i)
			if _, err := f.Run(ctx, c); err != nil {
				t.Fatalf("Run %d: %v", i, err)
			}
		}
		root.Finish()
		var sb strings.Builder
		if err := obs.WriteChromeTrace(&sb, spans.Snapshot(), true); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return sb.String()
	}

	first, second := export(), export()
	if first != second {
		t.Fatalf("canonical exports differ across runs:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
	// The export must place all three workers (plus the coordinator) on
	// the timeline by name.
	for _, w := range append([]string{"coordinator"}, workers...) {
		if !strings.Contains(first, w) {
			t.Errorf("canonical export missing process %q", w)
		}
	}
}

// TestFleetFallbackEvent asserts the degraded path is visible in the
// flight recorder.
func TestFleetFallbackEvent(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	events := obs.NewRing(16)
	f, err := NewFleet(FleetConfig{
		Workers:        []string{dead.URL},
		Fallback:       NewLocal(LocalConfig{Workers: 1}),
		Events:         events,
		HealthInterval: time.Hour,
		MaxAttempts:    2,
		RetryBase:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()

	if _, err := f.Run(context.Background(), testCell()); err != nil {
		t.Fatalf("Run should degrade to fallback: %v", err)
	}
	var sawFallback bool
	for _, e := range events.Snapshot(0) {
		if e.Kind == obs.EventFallback {
			sawFallback = true
			if e.Worker != "local" || e.Detail == "" {
				t.Errorf("fallback event = %+v", e)
			}
		}
	}
	if !sawFallback {
		t.Error("no fallback event recorded")
	}
}
