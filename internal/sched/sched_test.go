package sched

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"elfetch/internal/obs"
)

func waitDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return st
}

func TestSubmitRunsAndCaches(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	var calls int
	var mu sync.Mutex
	task := func(ctx context.Context) (any, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return 42, nil
	}
	key := Key("cfg", "wl", 1, 2)
	j1, err := s.Submit(context.Background(), "first", key, task)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j1)
	if st.State != Done || st.Result != 42 || st.Cached {
		t.Fatalf("first job: %+v", st)
	}

	j2, err := s.Submit(context.Background(), "second", key, task)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, j2)
	if st2.State != Done || st2.Result != 42 || !st2.Cached {
		t.Fatalf("second job not served from cache: %+v", st2)
	}
	if j2.ID() == j1.ID() {
		t.Error("cache hit should mint a fresh job id")
	}
	mu.Lock()
	if calls != 1 {
		t.Errorf("task ran %d times, want 1", calls)
	}
	mu.Unlock()
	cs := s.Stats().Cache
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("cache stats: %+v", cs)
	}
}

// TestFinishedJobsReleaseContext pins that a job's context is released
// once it finishes — both a job that ran and a job born Done from the
// cache — so finished jobs do not stay registered on the scheduler's base
// context until Shutdown, and that cancelling a finished job changes
// nothing.
func TestFinishedJobsReleaseContext(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	key := Key("release")
	task := func(ctx context.Context) (any, error) { return "v", nil }
	ran, err := s.Submit(context.Background(), "ran", key, task)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ran)
	hit, err := s.Submit(context.Background(), "hit", key, task)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, hit); !st.Cached {
		t.Fatalf("second submit not a cache hit: %+v", st)
	}

	for _, j := range []*Job{ran, hit} {
		if j.ctx.Err() == nil {
			t.Errorf("job %s: context still live after Done", j.ID())
		}
		j.Cancel()
		if st := j.Status(); st.State != Done || st.Result != "v" {
			t.Errorf("job %s: Cancel after Done changed it: %+v", j.ID(), st)
		}
	}
	if st := s.Stats(); st.Canceled != 0 || st.Completed != 1 {
		t.Errorf("stats after no-op cancels: %+v", st)
	}
}

// cacheHits submits n submissions of an already-cached key (each is born
// Done) and returns their job ids in submission order.
func cacheHits(t *testing.T, s *Scheduler, key string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		j, err := s.Submit(context.Background(), "hit", key, func(ctx context.Context) (any, error) {
			t.Error("cache hit ran its task")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); !st.Cached || st.State != Done {
			t.Fatalf("submit %d not a cache hit: %+v", i, st)
		}
		ids = append(ids, j.ID())
	}
	return ids
}

// primed returns a one-worker scheduler whose cache holds key, and the id
// of the job that filled it.
func primed(t *testing.T, key string) (*Scheduler, string) {
	t.Helper()
	s := New(Config{Workers: 1, QueueDepth: 8})
	j, err := s.Submit(context.Background(), "prime", key, func(ctx context.Context) (any, error) { return "v", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	return s, j.ID()
}

// jobCount is the size of the job table.
func jobCount(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// TestFinishedJobsRetiredBeyondWindow pins the finished-job window: Get
// finds the last retainFinished finished jobs and forgets older ones,
// while queued and running jobs stay reachable however many jobs finish
// around them, so the job table never exceeds the window plus live jobs.
func TestFinishedJobsRetiredBeyondWindow(t *testing.T) {
	const extra = 5
	key := Key("window")

	t.Run("cache hits", func(t *testing.T) {
		s, prime := primed(t, key)
		defer s.Shutdown(context.Background())
		ids := append([]string{prime}, cacheHits(t, s, key, retainFinished+extra-1)...)
		for i, id := range ids {
			_, ok := s.Get(id)
			if want := i >= extra; ok != want {
				t.Fatalf("Get(%s) (finished #%d of %d) found=%v, want %v", id, i+1, len(ids), ok, want)
			}
		}
		if n := jobCount(s); n != retainFinished {
			t.Errorf("job table holds %d, want %d", n, retainFinished)
		}
	})

	t.Run("queued and running survive", func(t *testing.T) {
		s, _ := primed(t, key)
		defer s.Shutdown(context.Background())
		block := make(chan struct{})
		started := make(chan struct{})
		running, err := s.Submit(context.Background(), "running", "", func(ctx context.Context) (any, error) {
			close(started)
			<-block
			return "r", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		queued, err := s.Submit(context.Background(), "queued", "", func(ctx context.Context) (any, error) { return "q", nil })
		if err != nil {
			t.Fatal(err)
		}
		cacheHits(t, s, key, retainFinished+extra)
		for _, j := range []*Job{running, queued} {
			if got, ok := s.Get(j.ID()); !ok || got != j {
				t.Errorf("live job %s forgotten behind %d finished jobs", j.ID(), retainFinished+extra)
			}
		}
		if n := jobCount(s); n != retainFinished+2 {
			t.Errorf("job table holds %d, want %d finished + 2 live", n, retainFinished)
		}
		close(block)
		waitDone(t, queued) // it runs after running on the one worker
		if st := s.Stats(); st.Completed != 3 {
			t.Fatalf("completed = %d once the live jobs finished, want 3", st.Completed)
		}
		for _, j := range []*Job{running, queued} {
			if _, ok := s.Get(j.ID()); !ok {
				t.Errorf("just-finished job %s forgotten", j.ID())
			}
		}
		if n := jobCount(s); n != retainFinished {
			t.Errorf("job table holds %d after the live jobs finished, want %d", n, retainFinished)
		}
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		s, _ := primed(t, key)
		defer s.Shutdown(context.Background())
		block := make(chan struct{})
		started := make(chan struct{})
		if _, err := s.Submit(context.Background(), "blocker", "", func(ctx context.Context) (any, error) {
			close(started)
			<-block
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		<-started
		victim, err := s.Submit(context.Background(), "victim", "", func(ctx context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		victim.Cancel()
		if st := waitDone(t, victim); st.State != Canceled {
			t.Fatalf("victim state = %s, want canceled", st.State)
		}
		// Canceled but still in the queue: run has not retired it yet.
		cacheHits(t, s, key, retainFinished+extra)
		if _, ok := s.Get(victim.ID()); !ok {
			t.Fatal("queued cancelled job forgotten before run retired it")
		}
		close(block)
		// A job queued behind the victim runs only after the worker has
		// dequeued the victim and retired it.
		tail, err := s.Submit(context.Background(), "tail", "", func(ctx context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, tail)
		if st := s.Stats(); st.Canceled != 1 || st.Completed != 3 {
			t.Fatalf("stats = %+v, want canceled 1 and completed 3 (prime, blocker, tail)", st)
		}
		if _, ok := s.Get(victim.ID()); !ok {
			t.Fatal("retired cancelled job forgotten inside the window")
		}
		cacheHits(t, s, key, retainFinished)
		if _, ok := s.Get(victim.ID()); ok {
			t.Error("cancelled job still found after the window passed it")
		}
		if n := jobCount(s); n != retainFinished {
			t.Errorf("job table holds %d, want %d", n, retainFinished)
		}
	})
}

// TestStatsMatchExposedSeries pins that Stats and /metrics read one
// source: after a fresh job, a coalesced submission, a cache hit, a
// failure and a cancellation, every Stats count equals its exposed series.
func TestStatsMatchExposedSeries(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	defer s.Shutdown(context.Background())

	key := Key("fresh")
	release := make(chan struct{})
	fresh, err := s.Submit(context.Background(), "fresh", key, func(ctx context.Context) (any, error) {
		<-release
		return "v", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if joined, err := s.Submit(context.Background(), "joined", key, nil); err != nil || joined != fresh {
		t.Fatalf("second submit did not coalesce: %v", err)
	}
	close(release)
	waitDone(t, fresh)
	hit, err := s.Submit(context.Background(), "hit", key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := hit.Status(); !st.Cached {
		t.Fatalf("third submit not a cache hit: %+v", st)
	}
	failed, err := s.Submit(context.Background(), "fail", "", func(ctx context.Context) (any, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, failed)
	started := make(chan struct{})
	canceled, err := s.Submit(context.Background(), "cancel", "", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	canceled.Cancel()
	waitDone(t, canceled)

	st := s.Stats()
	if st.Submitted != 3 || st.Coalesced != 1 || st.Completed != 1 || st.Failed != 1 ||
		st.Canceled != 1 || st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for series, v := range map[string]string{
		"elfd_sched_jobs_submitted_total":           fmt.Sprint(st.Submitted),
		"elfd_sched_jobs_coalesced_total":           fmt.Sprint(st.Coalesced),
		`elfd_sched_jobs_total{outcome="done"}`:     fmt.Sprint(st.Completed),
		`elfd_sched_jobs_total{outcome="failed"}`:   fmt.Sprint(st.Failed),
		`elfd_sched_jobs_total{outcome="canceled"}`: fmt.Sprint(st.Canceled),
		`elf_cache_requests_total{result="hit"}`:    fmt.Sprint(st.Cache.Hits),
		`elf_cache_requests_total{result="miss"}`:   fmt.Sprint(st.Cache.Misses),
		"elfd_sched_job_seconds_sum":                strconv.FormatFloat(st.TaskSeconds, 'g', -1, 64),
		"elfd_sched_cache_entries":                  fmt.Sprint(st.Cache.Entries),
		"elfd_sched_cache_bytes":                    fmt.Sprint(st.Cache.Bytes),
		"elfd_sched_queue_high_water":               fmt.Sprint(st.QueueHighWater),
	} {
		if line := "\n" + series + " " + v + "\n"; !strings.Contains(sb.String(), line) {
			t.Errorf("exposition lacks %q (Stats says %s):\n%s", series+" "+v, v, sb.String())
		}
	}
}

// TestCountedBeforeWaitReturns pins that the scheduler counts a job before
// it releases the job's waiters: as soon as Wait returns, Stats and the
// exposed series include the job, whether it ran, failed or was cancelled
// while queued. Cancel counts a queued job itself, before any worker
// dequeues it.
func TestCountedBeforeWaitReturns(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, QueueDepth: 8, Metrics: reg})
	defer s.Shutdown(context.Background())

	const jobs = 100
	for i := 1; i <= jobs; i++ {
		task := func(ctx context.Context) (any, error) { return i, nil }
		if i%2 == 0 {
			task = func(ctx context.Context) (any, error) { return nil, errors.New("boom") }
		}
		j, err := s.Submit(context.Background(), "job", "", task)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if st := s.Stats(); st.Completed+st.Failed != uint64(i) || st.Running != 0 {
			t.Fatalf("right after job %d's Wait: %+v", i, st)
		}
	}

	block := make(chan struct{})
	defer close(block) // before Shutdown, which waits for the blockers
	for w := 0; w < 2; w++ {
		if _, err := s.Submit(context.Background(), "blocker", "", func(ctx context.Context) (any, error) {
			<-block
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := s.Submit(context.Background(), "victim", "", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if st := waitDone(t, victim); st.State != Canceled {
		t.Fatalf("victim state = %s, want canceled", st.State)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf(`elfd_sched_jobs_total{outcome="done"} %d`, jobs/2),
		fmt.Sprintf(`elfd_sched_jobs_total{outcome="failed"} %d`, jobs/2),
		`elfd_sched_jobs_total{outcome="canceled"} 1`,
	} {
		if !strings.Contains(sb.String(), "\n"+line+"\n") {
			t.Errorf("right after the victim's Wait, the exposition lacks %q:\n%s", line, sb.String())
		}
	}
}

// stopWithin shuts s down, cancelling whatever still runs after a few
// seconds, so a test that failed with its jobs stuck still returns.
func stopWithin(s *Scheduler) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// parentTask returns a task that submits n children running child to s
// and waits on them all, the way an elfd experiment job waits on its cells.
func parentTask(s *Scheduler, n int, child Task) Task {
	return func(ctx context.Context) (any, error) {
		kids := make([]*Job, n)
		for i := range kids {
			k, err := s.Submit(ctx, fmt.Sprintf("child %d", i), "", child)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		for _, k := range kids {
			st, err := k.Wait(ctx)
			if err != nil {
				return nil, err
			}
			if st.State != Done {
				return nil, fmt.Errorf("child %s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
		return n, nil
	}
}

// TestNestedWaitOnOneWorker pins that a job waiting on jobs it submitted
// to its own scheduler hands its worker back: on a one-worker pool its
// children still run and it completes.
func TestNestedWaitOnOneWorker(t *testing.T) {
	s := New(Config{Workers: 1})
	defer stopWithin(s)

	child := func(ctx context.Context) (any, error) { return "c", nil }
	parent, err := s.Submit(context.Background(), "parent", "", parentTask(s, 2, child))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, parent); st.State != Done || st.Result != 2 {
		t.Fatalf("parent: %+v", st)
	}
	if st := s.Stats(); st.Completed != 3 || st.Running != 0 || st.Workers != 1 {
		t.Fatalf("stats = %+v, want 3 completed, none running, 1 worker", st)
	}
}

// TestNestedWaitKeepsWorkerBound pins that handing a worker back keeps
// the pool size the bound on jobs doing work: with two workers and four
// parents waiting on two children each, no more than two jobs ever run.
func TestNestedWaitKeepsWorkerBound(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	defer stopWithin(s)

	var mu sync.Mutex
	active, peakActive, peakRunning := 0, 0, 0
	observe := func(delta int) {
		mu.Lock()
		defer mu.Unlock()
		active += delta
		peakActive = max(peakActive, active)
		peakRunning = max(peakRunning, s.Stats().Running)
	}
	child := func(ctx context.Context) (any, error) {
		observe(1)
		defer observe(-1)
		time.Sleep(2 * time.Millisecond)
		return nil, nil
	}
	var parents []*Job
	for i := 0; i < 4; i++ {
		p, err := s.Submit(context.Background(), fmt.Sprintf("parent %d", i), "", parentTask(s, 2, child))
		if err != nil {
			t.Fatal(err)
		}
		parents = append(parents, p)
	}
	for _, p := range parents {
		if st := waitDone(t, p); st.State != Done {
			t.Fatalf("parent: %+v", st)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peakActive > 2 || peakRunning > 2 {
		t.Fatalf("%d children ran at once and Stats showed %d running, want at most 2 each",
			peakActive, peakRunning)
	}
	if st := s.Stats(); st.Completed != 12 || st.Running != 0 {
		t.Fatalf("stats = %+v, want 12 completed and none running", st)
	}
}

// TestNestedBacklogStartsWorkersAtATime pins the bound on top-level jobs:
// with two workers, five parents submitted together start two at a time,
// as on a pool without nesting, and their nested jobs, more than the
// queue holds, are never refused, so every parent completes.
func TestNestedBacklogStartsWorkersAtATime(t *testing.T) {
	const parents, children = 5, 4
	s := New(Config{Workers: 2, QueueDepth: parents})
	defer stopWithin(s)

	var mu sync.Mutex
	active, peak := 0, 0
	child := func(ctx context.Context) (any, error) {
		time.Sleep(5 * time.Millisecond) // long enough for both workers to start a parent
		return nil, nil
	}
	inner := parentTask(s, children, child)
	parent := func(ctx context.Context) (any, error) {
		mu.Lock()
		active++
		peak = max(peak, active)
		mu.Unlock()
		defer func() { mu.Lock(); active--; mu.Unlock() }()
		return inner(ctx)
	}
	var jobs []*Job
	for i := 0; i < parents; i++ {
		p, err := s.Submit(context.Background(), fmt.Sprintf("parent %d", i), "", parent)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, p)
	}
	for _, p := range jobs {
		if st := waitDone(t, p); st.State != Done {
			t.Fatalf("parent: %+v", st)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != 2 {
		t.Errorf("%d parents ran at once on two workers, want 2", peak)
	}
	if st := s.Stats(); st.Completed != parents*(children+1) || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d completed and none failed", st, parents*(children+1))
	}
}

// TestNestedWaitPromotesQueuedJob pins that a queued top-level job that a
// task waits on is not held back behind that task: on one worker, a
// parent whose nested submission coalesces onto a top-level job queued
// behind it still completes, with that job's result.
func TestNestedWaitPromotesQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer stopWithin(s)
	key := Key("shared")
	queued := make(chan struct{})
	parent, err := s.Submit(context.Background(), "parent", "", func(ctx context.Context) (any, error) {
		<-queued
		k, err := s.Submit(ctx, "nested", key, func(context.Context) (any, error) { return "nested", nil })
		if err != nil {
			return nil, err
		}
		st, err := k.Wait(ctx)
		return st.Result, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), "top", key, func(context.Context) (any, error) { return "top", nil }); err != nil {
		t.Fatal(err)
	}
	close(queued)
	if st := waitDone(t, parent); st.State != Done || st.Result != "top" {
		t.Fatalf("parent: %+v, want done with the queued job's result", st)
	}
	if st := s.Stats(); st.Completed != 2 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want 2 completed and 1 coalesced", st)
	}
}

// TestShutdownDrainsNestedJobs pins that Shutdown drains jobs that submit
// nested jobs: once it has begun, top-level submissions fail, but the
// running parents' nested submissions are accepted and run, though each
// parent submits them one at a time and the queue empties in between.
func TestShutdownDrainsNestedJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	child := func(ctx context.Context) (any, error) { return nil, nil }
	gate := make(chan struct{})
	one := parentTask(s, 1, child)
	parent := func(ctx context.Context) (any, error) {
		<-gate
		for i := 0; i < 2; i++ {
			if _, err := one(ctx); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	var parents []*Job
	for i := 0; i < 2; i++ {
		p, err := s.Submit(context.Background(), fmt.Sprintf("parent %d", i), "", parent)
		if err != nil {
			t.Fatal(err)
		}
		parents = append(parents, p)
	}
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), "late", "", child); !errors.Is(err, ErrShutdown) {
		t.Fatalf("top-level submit during Shutdown: %v, want ErrShutdown", err)
	}
	close(gate)
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never drained")
	}
	for _, j := range parents {
		if st := j.Status(); st.State != Done {
			t.Errorf("%s after Shutdown: %+v, want done", st.Label, st)
		}
	}
	if st := s.Stats(); st.Completed != 6 {
		t.Fatalf("stats = %+v, want 6 completed (two parents, four nested)", st)
	}
}

func TestInflightCoalescing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	release := make(chan struct{})
	task := func(ctx context.Context) (any, error) {
		<-release
		return "v", nil
	}
	key := Key("same")
	j1, err := s.Submit(context.Background(), "a", key, task)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(context.Background(), "b", key, task)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submissions should coalesce onto one job")
	}
	close(release)
	if st := waitDone(t, j2); st.State != Done || st.Result != "v" {
		t.Fatalf("coalesced job: %+v", st)
	}
	if got := s.Stats().Coalesced; got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
}

// TestWaiterGivingUpKeepsCoalescedJob pins that a coalesced job survives
// one of its submitters giving up: the job is cancelled only when the last
// waiting submitter's context ends.
func TestWaiterGivingUpKeepsCoalescedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	release := make(chan struct{})
	task := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "v", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	key := Key("shared")
	first, err := s.Submit(context.Background(), "first", key, task)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(context.Background(), "second", key, task)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("identical in-flight submissions should coalesce onto one job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := first.Wait(ctx); err == nil {
		t.Fatal("first waiter's Wait returned before its deadline")
	}
	close(release)
	if st := waitDone(t, second); st.State != Done || st.Result != "v" {
		t.Fatalf("one waiter giving up ended the job for the other: %+v", st)
	}

	// The last submitter giving up still cancels the job.
	last, err := s.Submit(context.Background(), "last", Key("alone"), func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	gone, stop := context.WithCancel(context.Background())
	stop()
	last.Wait(gone)
	if st := waitDone(t, last); st.State != Canceled {
		t.Fatalf("sole waiter gave up, job state = %s, want canceled", st.State)
	}
}

// TestSubmitDoesNotJoinCanceledJob pins that a submission arriving while a
// cancelled job's task is still returning gets a fresh job instead of
// inheriting the cancellation.
func TestSubmitDoesNotJoinCanceledJob(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	started := make(chan struct{}, 1)
	linger := make(chan struct{})
	release := sync.OnceFunc(func() { close(linger) })
	defer release() // before Shutdown, which waits for the task
	key := Key("linger")
	dying, err := s.Submit(context.Background(), "dying", key, func(ctx context.Context) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		<-linger // still in flight after the cancel
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	dying.Cancel()
	fresh, err := s.Submit(context.Background(), "fresh", key, func(ctx context.Context) (any, error) { return "v", nil })
	if err != nil {
		t.Fatal(err)
	}
	if fresh == dying {
		t.Fatal("new submission joined a cancelled job")
	}
	if st := waitDone(t, fresh); st.State != Done || st.Result != "v" {
		t.Fatalf("fresh job: %+v", st)
	}
	release()
	if st := waitDone(t, dying); st.State != Canceled {
		t.Fatalf("cancelled job state = %s", st.State)
	}
	if st, err := s.Submit(context.Background(), "cached", key, nil); err != nil || !st.Status().Cached {
		t.Fatalf("the fresh result was not cached: %v", err)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())

	block := make(chan struct{})
	defer close(block)
	slow := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	if _, err := s.Submit(context.Background(), "running", "", slow); err != nil {
		t.Fatal(err)
	}
	// The worker may not have dequeued the first job yet; fill until full.
	deadline := time.Now().Add(5 * time.Second)
	n := 0
	for {
		_, err := s.Submit(context.Background(), fmt.Sprintf("q%d", n), "", slow)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n > 2 || time.Now().After(deadline) {
			t.Fatalf("queue never filled after %d extra submits", n)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	started := make(chan struct{})
	task := func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := s.Submit(context.Background(), "c", "", task)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j.Cancel()
	st := waitDone(t, j)
	if st.State != Canceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	block := make(chan struct{})
	if _, err := s.Submit(context.Background(), "blocker", "", func(ctx context.Context) (any, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ran := false
	j, err := s.Submit(context.Background(), "victim", "", func(ctx context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	if st := waitDone(t, j); st.State != Canceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	close(block)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled queued job still ran")
	}
}

func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(context.Background(), "slow", "", func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != Failed || st.Error == "" {
		t.Fatalf("timed-out job: %+v", st)
	}
}

func TestTaskPanicBecomesFailure(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(context.Background(), "boom", "", func(ctx context.Context) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != Failed || st.Error == "" {
		t.Fatalf("panicking job: %+v", st)
	}
	// The pool must survive: a follow-up job still runs.
	j2, err := s.Submit(context.Background(), "after", "", func(ctx context.Context) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j2); st.State != Done {
		t.Fatalf("job after panic: %+v", st)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	s := New(Config{Workers: 2})
	var done int
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(context.Background(), "drain", "", func(ctx context.Context) (any, error) {
			mu.Lock()
			done++
			mu.Unlock()
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if done != 8 {
		t.Errorf("drained %d jobs, want 8", done)
	}
	mu.Unlock()
	if _, err := s.Submit(context.Background(), "late", "", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrShutdown) {
		t.Errorf("post-shutdown submit: %v", err)
	}
}

func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	if _, err := s.Submit(context.Background(), "hang", "", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // only a cancel releases this task
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
}

func TestConcurrentSubmitStress(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 4096, CacheSize: 64})
	defer s.Shutdown(context.Background())

	var wg sync.WaitGroup
	jobs := make(chan *Job, 512)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				key := Key("stress", i%16) // plenty of key collisions
				j, err := s.Submit(context.Background(), "stress", key, func(ctx context.Context) (any, error) {
					return g, nil
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobs <- j
			}
		}()
	}
	wg.Wait()
	close(jobs)
	for j := range jobs {
		st := waitDone(t, j)
		if st.State != Done {
			t.Fatalf("stress job: %+v", st)
		}
	}
}

func TestKeyIsStableAndDiscriminating(t *testing.T) {
	a := Key("cfg", map[string]int{"x": 1}, 100)
	b := Key("cfg", map[string]int{"x": 1}, 100)
	c := Key("cfg", map[string]int{"x": 2}, 100)
	if a != b {
		t.Error("identical parts produced different keys")
	}
	if a == c {
		t.Error("different parts collided")
	}
}

// TestKeyFoldsEncodingErrors pins the documented fallback: a part that
// JSON cannot encode folds the error string into the hash instead of
// panicking, and the fold is still a stable, non-colliding key — two
// submits with the same unencodable part coalesce, and neither collides
// with an encodable part or a different unencodable one.
func TestKeyFoldsEncodingErrors(t *testing.T) {
	ch := make(chan int)
	a := Key("cfg", ch)
	b := Key("cfg", ch)
	if a != b {
		t.Error("identical unencodable parts produced different keys")
	}
	if c := Key("cfg", "encodable"); a == c {
		t.Error("error fold collided with an encodable part")
	}
	if d := Key("cfg", func() {}); a == d {
		t.Error("distinct unencodable types collided")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: now b is LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}
