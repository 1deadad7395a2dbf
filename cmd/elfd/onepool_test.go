package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/sched"
)

// experimentCells returns the named experiment's cells at the given run
// lengths, as its job submits them. It fails unless the cells are
// distinct, so a test can count cache hits and completions exactly.
func experimentCells(t *testing.T, name string, warmup, measure uint64) []eval.Cell {
	t.Helper()
	x, err := eval.LookupExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	cells := make([]eval.Cell, len(x.Cells))
	for i, c := range x.Cells {
		c.Warmup, c.Measure = warmup, measure
		keys[sched.Key("cell", c)] = true
		cells[i] = c
	}
	if len(keys) != len(cells) {
		t.Fatalf("%s has %d distinct cells of %d", name, len(keys), len(cells))
	}
	return cells
}

// debugStats reads /debug/stats.
func debugStats(t *testing.T, h http.Handler) statsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/stats: %d %s", rec.Code, rec.Body.String())
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestExperimentCellsShareThePool pins that an experiment job's cells run
// on the server's one scheduler: a figure-6 job completes on a one-worker
// server; scheduler.completed, elfd_sched_jobs_total{outcome="done"} and
// the exec block all count its cells and the job; and POST /v1/cells for
// one of its cells is then a cache hit.
func TestExperimentCellsShareThePool(t *testing.T) {
	srv := newTestServer(t, exec.LocalConfig{Workers: 1, QueueDepth: 64},
		eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{})
	cells := experimentCells(t, "figure-6", 1_000, 4_000)
	rec, _ := doJSON(t, srv, "POST", "/v1/jobs?wait=1", map[string]any{"kind": "figure-6"})
	if rec.Code != http.StatusOK {
		t.Fatalf("figure-6 job at one worker: %d %s", rec.Code, rec.Body.String())
	}

	want := uint64(len(cells) + 1)
	st := debugStats(t, srv)
	if st.Scheduler.Completed != want || st.Scheduler.Cache.Hits != 0 {
		t.Fatalf("scheduler after figure-6 = %+v, want %d completed (cells + job) and no hits",
			st.Scheduler, want)
	}
	if st.Exec == nil || st.Exec.Scheduler == nil || *st.Exec.Scheduler != st.Scheduler {
		t.Fatalf("exec block is not the server's scheduler:\nexec      %+v\nscheduler %+v",
			st.Exec, st.Scheduler)
	}
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if line := fmt.Sprintf("\nelfd_sched_jobs_total{outcome=\"done\"} %d\n", want); !strings.Contains(mrec.Body.String(), line) {
		t.Fatalf("/metrics lacks %q:\n%s", strings.TrimSpace(line), mrec.Body.String())
	}

	rec, _ = doJSON(t, srv, "POST", "/v1/cells", cells[0])
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/cells: %d %s", rec.Code, rec.Body.String())
	}
	if after := srv.sched.Stats(); after.Completed != want || after.Cache.Hits != 1 {
		t.Fatalf("cell of a finished experiment was not a cache hit: %+v", after)
	}
}

// TestExperimentCellsOutgrowTheQueue pins that an experiment job's cells
// are never refused for queue room: on a 16-thread host, a one-worker
// server with a two-deep queue runs figure-6, whose grid keeps up to 16
// cells queued at a time.
func TestExperimentCellsOutgrowTheQueue(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	srv := newTestServer(t, exec.LocalConfig{Workers: 1, QueueDepth: 2},
		eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{})
	rec, _ := doJSON(t, srv, "GET", "/v1/experiments/figure-6?format=csv", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("figure-6 on a two-deep queue: %d %s", rec.Code, rec.Body.String())
	}
	if st := srv.sched.Stats(); st.QueueHighWater <= st.QueueDepth {
		t.Fatalf("queue high water %d within depth %d: the cells never outgrew the queue",
			st.QueueHighWater, st.QueueDepth)
	}
}

// submitExperiments posts one asynchronous job of kind for each measure
// length, so every job and all their cells are distinct, and returns the
// job ids.
func submitExperiments(t *testing.T, h http.Handler, kind string, measures ...uint64) []string {
	t.Helper()
	w := uint64(1_000)
	var ids []string
	for _, m := range measures {
		rec, job := doJSON(t, h, "POST", "/v1/jobs", jobRequest{Kind: kind, Warmup: &w, Measure: &m})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s job at %d instructions: %d %s", kind, m, rec.Code, rec.Body.String())
		}
		ids = append(ids, job["id"].(string))
	}
	return ids
}

// TestExperimentBurstStartsWorkersAtATime pins that a burst of experiment
// jobs runs as on a pool without nesting: at two workers and an
// eight-deep queue on a 16-thread host, five distinct experiment jobs
// submitted together all end done, no more than two of them run at once,
// and scheduler.running never exceeds two.
//
// The jobs' overlap is counted once all are done, from their own started
// and finished times: the scheduler sets both under its lock, in the same
// critical sections that move its count of running top-level jobs, so the
// peak overlap of the half-open [started, finished) intervals is that
// count's peak. Adding up the states of sequential GET /v1/jobs/{id} reads
// instead could count a job that finished between two reads together with
// one that started after it.
func TestExperimentBurstStartsWorkersAtATime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	srv := newTestServer(t, exec.LocalConfig{Workers: 2, QueueDepth: 8},
		eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{})
	ids := submitExperiments(t, srv, "btb", 4_000, 4_001, 4_002, 4_003, 4_004)

	peakRunning := 0
	deadline := time.Now().Add(60 * time.Second)
	for done := 0; done < len(ids); {
		done = 0
		for _, id := range ids {
			_, job := doJSON(t, srv, "GET", "/v1/jobs/"+id, nil)
			switch s := sched.State(job["state"].(string)); {
			case s == sched.Done:
				done++
			case s.Terminal():
				t.Fatalf("experiment job %s ended %s: %v", id, s, job)
			}
		}
		peakRunning = max(peakRunning, srv.sched.Stats().Running)
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d experiment jobs done after 60s", done, len(ids))
		}
		time.Sleep(2 * time.Millisecond)
	}
	type event struct {
		at    time.Time
		delta int // +1 at a start, -1 at a finish
	}
	var events []event
	for _, id := range ids {
		j, ok := srv.sched.Get(id)
		if !ok {
			t.Fatalf("experiment job %s is gone", id)
		}
		st := j.Status()
		if st.Started == nil || st.Finished == nil {
			t.Fatalf("done experiment job %s lacks a start or finish time: %+v", id, st)
		}
		events = append(events, event{*st.Started, +1}, event{*st.Finished, -1})
	}
	// A finish sorts before a start at the same instant: the intervals
	// are half-open.
	slices.SortFunc(events, func(a, b event) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return a.delta - b.delta
	})
	peakJobs, overlap := 0, 0
	for _, e := range events {
		overlap += e.delta
		peakJobs = max(peakJobs, overlap)
	}
	if peakJobs > 2 || peakRunning > 2 {
		t.Fatalf("%d experiment jobs and %d simulations ran at once on two workers, want at most 2 each",
			peakJobs, peakRunning)
	}
	if st := srv.sched.Stats(); st.Failed != 0 || st.Completed != uint64(len(ids)*21) {
		t.Fatalf("stats = %+v, want %d completed (5 jobs of 20 cells each) and none failed",
			st, len(ids)*21)
	}
}

// TestShutdownDrainsExperimentJobs pins elfd's drain: once the scheduler
// shuts down, new jobs are refused, but an experiment job running or
// queued by then still runs every cell, one at a time here, and ends done.
func TestShutdownDrainsExperimentJobs(t *testing.T) {
	srv := newTestServer(t, exec.LocalConfig{Workers: 1, QueueDepth: 8},
		eval.Params{Warmup: 1_000, Measure: 4_000, Parallel: 1}, serverOptions{})
	ids := submitExperiments(t, srv, "btb", 4_000, 4_001)
	if err := srv.sched.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		if _, job := doJSON(t, srv, "GET", "/v1/jobs/"+id, nil); job["state"] != string(sched.Done) {
			t.Errorf("experiment job %s after Shutdown: %v, want done", id, job)
		}
	}
	if st := srv.sched.Stats(); st.Completed != 42 {
		t.Errorf("completed = %d after Shutdown, want 42 (two jobs of 20 cells each)", st.Completed)
	}
	if rec, _ := doJSON(t, srv, "POST", "/v1/jobs", map[string]any{"kind": "btb"}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("job after Shutdown: %d %s, want 503", rec.Code, rec.Body.String())
	}
}

// TestPostedCellServesLaterExperiment pins the other direction: a cell
// posted first is a cache hit for a later experiment that contains it, so
// the experiment simulates only its other cells.
func TestPostedCellServesLaterExperiment(t *testing.T) {
	srv, s := testServer(t)
	cells := experimentCells(t, "btb", 1_000, 4_000)
	rec, _ := doJSON(t, srv, "POST", "/v1/cells", cells[0])
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/cells: %d %s", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, srv, "GET", "/v1/experiments/btb?warmup=1000&insts=4000&format=csv", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("btb: %d %s", rec.Code, rec.Body.String())
	}
	// The posted cell, the experiment's other cells and the job itself.
	if st := s.Stats(); st.Completed != uint64(len(cells)+1) || st.Cache.Hits != 1 {
		t.Fatalf("stats = %+v, want %d completed and the posted cell's one hit", st, len(cells)+1)
	}
}

// TestWorkersBoundEverySimulation pins that -workers bounds jobs and
// experiment cells together: on a two-worker server, with a long run job
// and a figure-6 job in flight, /debug/stats never shows more than two
// jobs running on the one scheduler, and the experiment still completes
// on the one worker the run job leaves it.
func TestWorkersBoundEverySimulation(t *testing.T) {
	srv := newTestServer(t, exec.LocalConfig{Workers: 2, QueueDepth: 64},
		eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{})
	rec, long := doJSON(t, srv, "POST", "/v1/jobs", map[string]any{
		"workload": "602.gcc_s", "warmup": 0, "measure": 500_000_000,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("long run: %d %s", rec.Code, rec.Body.String())
	}
	longID := long["id"].(string)
	defer doJSON(t, srv, "DELETE", "/v1/jobs/"+longID, nil)
	rec, fig := doJSON(t, srv, "POST", "/v1/jobs", map[string]any{"kind": "figure-6"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("figure-6 job: %d %s", rec.Code, rec.Body.String())
	}
	figID := fig["id"].(string)

	peak, snapshots := 0, 0
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := debugStats(t, srv)
		snapshots++
		peak = max(peak, st.Scheduler.Running)
		if st.Scheduler.Running > 2 {
			t.Fatalf("scheduler.running = %d at two workers: %+v", st.Scheduler.Running, st.Scheduler)
		}
		_, job := doJSON(t, srv, "GET", "/v1/jobs/"+figID, nil)
		if job["state"] == string(sched.Done) {
			break
		}
		if s := job["state"].(string); sched.State(s).Terminal() {
			t.Fatalf("figure-6 job ended %s: %v", s, job)
		}
		if time.Now().After(deadline) {
			t.Fatalf("figure-6 job never finished beside the run job: %v", job)
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, lj := doJSON(t, srv, "GET", "/v1/jobs/"+longID, nil)
	if lj["state"] != string(sched.Running) {
		t.Fatalf("the run job is %v, want it still running", lj["state"])
	}
	// One pool: the exec block reads the same scheduler, so
	// scheduler.running counted every simulation.
	st := debugStats(t, srv)
	if st.Exec == nil || st.Exec.Scheduler == nil || *st.Exec.Scheduler != st.Scheduler {
		t.Fatalf("exec block is not the server's scheduler:\nexec      %+v\nscheduler %+v",
			st.Exec, st.Scheduler)
	}
	if peak != 2 {
		t.Errorf("peak scheduler.running = %d over %d snapshots, want 2", peak, snapshots)
	}
}
