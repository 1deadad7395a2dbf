package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elfetch/internal/btb"
	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
)

// envelope pulls the error envelope out of a decoded response, failing
// the test if the shape is wrong.
func envelope(t *testing.T, decoded map[string]any) (code, message string) {
	t.Helper()
	e, ok := decoded["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", decoded)
	}
	code, _ = e["code"].(string)
	message, _ = e["message"].(string)
	if code == "" || message == "" {
		t.Fatalf("envelope missing code/message: %v", e)
	}
	return code, message
}

// configCell is a valid leela cell whose configuration edit applies.
func configCell(edit func(*pipeline.Config)) eval.Cell {
	c := eval.Cell{Workload: "641.leela_s", Config: pipeline.DefaultConfig(), Warmup: 1000, Measure: 4000}
	edit(&c.Config)
	return c
}

// btbCell is a valid leela cell whose BTB geometry edit applies.
func btbCell(edit func(*btb.Config)) eval.Cell {
	return configCell(func(c *pipeline.Config) { edit(&c.BTB) })
}

// TestErrorEnvelope drives every handler failure path and asserts the
// uniform {"error":{"code","message","detail"}} body.
func TestErrorEnvelope(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		name     string
		method   string
		target   string
		body     any
		status   int
		wantCode string
	}{
		{"submit bad json", "POST", "/v1/jobs", "not json", http.StatusBadRequest, "bad_request"},
		{"submit unknown kind", "POST", "/v1/jobs",
			map[string]any{"kind": "nope"}, http.StatusBadRequest, "bad_request"},
		{"submit no workload", "POST", "/v1/jobs",
			map[string]any{}, http.StatusBadRequest, "bad_request"},
		{"submit unknown workload", "POST", "/v1/jobs",
			map[string]any{"workload": "nope"}, http.StatusNotFound, "not_found"},
		{"submit unknown variant", "POST", "/v1/jobs",
			map[string]any{"workload": "641.leela_s", "variant": "nope"},
			http.StatusBadRequest, "bad_request"},
		{"submit bad figure", "POST", "/v1/jobs",
			map[string]any{"kind": "figure-5"}, http.StatusBadRequest, "bad_request"},
		{"submit trace on figure", "POST", "/v1/jobs",
			map[string]any{"kind": "figure-6", "trace": true},
			http.StatusBadRequest, "bad_request"},
		{"job status unknown id", "GET", "/v1/jobs/j999999", nil, http.StatusNotFound, "not_found"},
		{"job trace unknown id", "GET", "/v1/jobs/j999999/trace", nil, http.StatusNotFound, "not_found"},
		{"cancel unknown id", "DELETE", "/v1/jobs/j999999", nil, http.StatusNotFound, "not_found"},
		{"figure not a number", "GET", "/v1/experiments/figure-abc", nil, http.StatusBadRequest, "bad_request"},
		{"figure out of range", "GET", "/v1/experiments/figure-5", nil, http.StatusBadRequest, "bad_request"},
		{"figure bad format", "GET", "/v1/experiments/figure-6?format=nope", nil, http.StatusBadRequest, "bad_request"},
		{"figure bad warmup", "GET", "/v1/experiments/figure-6?warmup=x", nil, http.StatusBadRequest, "bad_request"},
		{"cell bad json", "POST", "/v1/cells", "not json", http.StatusBadRequest, "bad_request"},
		{"cell empty", "POST", "/v1/cells", map[string]any{}, http.StatusBadRequest, "bad_request"},
		{"cell unknown field", "POST", "/v1/cells",
			map[string]any{"bogus": 1}, http.StatusBadRequest, "bad_request"},
		{"cell unknown workload", "POST", "/v1/cells",
			eval.Cell{Workload: "nope", Config: pipeline.DefaultConfig(), Measure: 1000},
			http.StatusNotFound, "not_found"},
		// BTB geometry a set mask cannot index is refused by
		// Config.Validate, not simulated (or panicked on) by a worker.
		{"cell BTB L1 ways zero", "POST", "/v1/cells",
			btbCell(func(c *btb.Config) { c.L1Ways = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell BTB L2 entries zero", "POST", "/v1/cells",
			btbCell(func(c *btb.Config) { c.L2Entries = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell BTB 48 L1 sets", "POST", "/v1/cells",
			btbCell(func(c *btb.Config) { c.L1Entries = 192 }), http.StatusBadRequest, "bad_request"},
		// So is a back end that would panic sizing its arrays (a negative
		// ROB, commit width or prefetch bound) or never commit (a zero
		// size, width or port count, or a latency below one).
		{"cell ROB negative", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.ROB = -1 }), http.StatusBadRequest, "bad_request"},
		{"cell commit width negative", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.CommitWidth = -1 }), http.StatusBadRequest, "bad_request"},
		{"cell MaxPrefetch negative", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.MaxPrefetch = -1 }), http.StatusBadRequest, "bad_request"},
		{"cell ROB zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.ROB = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell commit width zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.CommitWidth = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell rename width zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.RenameWidth = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell IQ zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.IQ = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell LSQ zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.LSQ = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell ALU ports zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.ALUPorts = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell memory ports zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.MemPorts = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell ALU latency zero", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.ALULat = 0 }), http.StatusBadRequest, "bad_request"},
		{"cell ALU latency negative", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.ALULat = -1 }), http.StatusBadRequest, "bad_request"},
		// So are sizes that would allocate more than a host has, or a
		// fetch group wider than the two L0I lines coupled fetch tracks
		// (which panicked), and run lengths whose sum wraps a uint64
		// (which simulated until the safety cycle bound).
		{"cell huge L2 BTB", "POST", "/v1/cells",
			btbCell(func(c *btb.Config) { c.L2Entries = 1 << 34 }), http.StatusBadRequest, "bad_request"},
		{"cell huge FAQ", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.FAQSize = 1 << 40 }), http.StatusBadRequest, "bad_request"},
		{"cell huge MaxPrefetch", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.MaxPrefetch = 1 << 40 }), http.StatusBadRequest, "bad_request"},
		{"cell huge commit width", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { c.Backend.CommitWidth = 1 << 40 }), http.StatusBadRequest, "bad_request"},
		{"cell NoDCF fetch width 18", "POST", "/v1/cells",
			configCell(func(c *pipeline.Config) { *c = c.NoDCF(); c.FetchWidth = 18 }), http.StatusBadRequest, "bad_request"},
		{"cell run lengths wrap", "POST", "/v1/cells",
			eval.Cell{Workload: "641.leela_s", Config: pipeline.DefaultConfig(), Warmup: 1<<64 - 1, Measure: 1},
			http.StatusBadRequest, "bad_request"},
		// Bodies past maxRequestBytes are refused before they are read
		// in full, however well-formed.
		{"cell over the body bound", "POST", "/v1/cells",
			eval.Cell{Workload: strings.Repeat("x", 2<<20), Config: pipeline.DefaultConfig(), Measure: 1000},
			http.StatusBadRequest, "bad_request"},
		{"submit over the body bound", "POST", "/v1/jobs",
			map[string]any{"workload": strings.Repeat("x", 2<<20)}, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, decoded := doJSON(t, srv, tc.method, tc.target, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			code, _ := envelope(t, decoded)
			if code != tc.wantCode {
				t.Errorf("code %q, want %q (%s)", code, tc.wantCode, rec.Body.String())
			}
		})
	}
}

// TestWriteErrClassification covers the sentinel-driven envelope codes the
// handler table can't reach deterministically (queue pressure, shutdown,
// cancellation, plain internal errors).
func TestWriteErrClassification(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		status   int
		wantCode string
	}{
		{"queue full", sched.ErrQueueFull, http.StatusServiceUnavailable, "queue_full"},
		{"shutting down", sched.ErrShutdown, http.StatusServiceUnavailable, "shutting_down"},
		{"canceled", context.Canceled, http.StatusConflict, "canceled"},
		{"plain error", errors.New("boom"), http.StatusInternalServerError, "internal"},
		{"wrapped queue full", errors.Join(errors.New("ctx"), sched.ErrQueueFull),
			http.StatusServiceUnavailable, "queue_full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeErr(rec, httptest.NewRequest("GET", "/", nil), tc.err)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d", rec.Code, tc.status)
			}
			var decoded map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
				t.Fatalf("body not JSON: %v\n%s", err, rec.Body.String())
			}
			code, msg := envelope(t, decoded)
			if code != tc.wantCode {
				t.Errorf("code %q, want %q", code, tc.wantCode)
			}
			if msg == "" {
				t.Error("empty message")
			}
		})
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	rec, body := doJSON(t, srv, "GET", "/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestCellEndpoint(t *testing.T) {
	srv, s := testServer(t)
	cell := eval.Cell{
		Workload: "641.leela_s",
		Config:   pipeline.DefaultConfig(),
		Warmup:   1_000,
		Measure:  4_000,
	}
	rec, body := doJSON(t, srv, "POST", "/v1/cells", cell)
	if rec.Code != http.StatusOK {
		t.Fatalf("cell: %d %s", rec.Code, rec.Body.String())
	}
	if body["workload"] != "641.leela_s" || body["config"] != "DCF" {
		t.Fatalf("result identity: %v", body)
	}
	if ipc, _ := body["ipc"].(float64); ipc <= 0 {
		t.Fatalf("implausible IPC: %v", body)
	}

	// Identical cell again: content-addressed, so it must be a cache hit.
	rec2, _ := doJSON(t, srv, "POST", "/v1/cells", cell)
	if rec2.Code != http.StatusOK {
		t.Fatalf("repeat cell: %d %s", rec2.Code, rec2.Body.String())
	}
	if rec.Body.String() != rec2.Body.String() {
		t.Fatalf("repeat cell differs:\n%s\nvs\n%s", rec.Body.String(), rec2.Body.String())
	}
	if hits := s.Stats().Cache.Hits; hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}
