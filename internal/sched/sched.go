// Package sched is the serving layer's job engine: a bounded worker-pool
// scheduler with a content-addressed result cache. cmd/elfd submits
// simulation closures here; identical submissions (same config, workload,
// warmup, measure) coalesce while in flight and are served from cache once
// complete, so repeated figure/sweep requests cost one simulation. A job
// that a running task submits to its own scheduler is nested (an elfd
// experiment's cells); see Submit and Job.Wait for why nesting is safe.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"elfetch/internal/obs"
)

// Task is one unit of work. It must honour ctx: the scheduler relies on
// tasks returning promptly after cancellation (simulations poll their
// context every few thousand cycles via pipeline.Machine.RunContext).
type Task func(ctx context.Context) (any, error)

// State is a job's lifecycle position.
type State string

// Job states. Terminal states are Done, Failed and Canceled.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Submission errors.
var (
	ErrQueueFull = errors.New("sched: queue full")
	ErrShutdown  = errors.New("sched: scheduler shut down")
)

// Config sizes the scheduler.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS). It bounds the
	// jobs doing work and the top-level jobs started but not finished.
	Workers int
	// QueueDepth bounds the queued top-level jobs (0 = 64). Top-level
	// submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// JobTimeout bounds one job's runtime (0 = unlimited).
	JobTimeout time.Duration
	// CacheSize bounds the result cache (0 = 512 entries).
	CacheSize int
	// Metrics exposes the scheduler's operational metrics (queue depth,
	// job latency, cache hit/miss, per-outcome job counts). Stats reads
	// the same counters, so nil only keeps them unexposed.
	Metrics *obs.Registry
}

// Job is one scheduled task. All fields are private; read through
// Status(), wait through Done‑channel semantics via Wait().
type Job struct {
	id    string
	key   string
	label string
	task  Task
	s     *Scheduler // the scheduler that runs it

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu sync.Mutex
	// state is written holding both s.mu and mu, so either lock reads it.
	state      State
	submitters int // Submit calls holding the job; see Wait
	cached     bool
	result     any
	err        error
	submitted  time.Time
	started    time.Time
	finished   time.Time

	// Guarded by s.mu: nested marks a nested job or a queued job a task
	// of s waits on; released marks a job whose task handed its worker back.
	nested, released bool
}

// runningJob is the context key under which a task's context carries its
// job, so Submit and Wait can tell a task of the scheduler from a client.
type runningJob struct{}

// ID returns the job's scheduler-assigned identifier.
func (j *Job) ID() string { return j.id }

// Wait blocks until the job reaches a terminal state or ctx is done. A
// caller whose ctx ends first gives up its submission, and the job is
// cancelled once no submitter is left. That is how elfd propagates a client
// abort into the simulation: the caller waits with the HTTP request
// context, the client hangs up, the job cancels — unless another client's
// identical submission coalesced onto it and still wants the result. Each
// submission gives up at most once: call Wait once per Submit.
//
// A task of the same scheduler that would block here first hands its
// worker back: a replacement starts, the waiting job stops counting as
// running, and its goroutine leaves the pool when its task returns; a
// queued job it waits on becomes nested. So nesting cannot deadlock a
// one-worker pool, and Workers still bounds the jobs doing work.
func (j *Job) Wait(ctx context.Context) (JobStatus, error) {
	j.s.yield(ctx, j)
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		j.mu.Lock()
		j.submitters--
		last := j.submitters <= 0
		j.mu.Unlock()
		if last {
			j.Cancel()
		}
		return j.Status(), ctx.Err()
	}
}

// Cancel aborts the job. A queued job finishes as Canceled at once and
// never runs; a running job's context is cancelled and it finishes as
// Canceled when its task returns. Cancelling a terminal job is a no-op.
// Note a coalesced job is shared: Cancel cancels it for every submitter
// (Wait, by contrast, only gives up the caller's submission).
func (j *Job) Cancel() {
	j.cancel()
	j.s.finish(j, Queued, Canceled, nil, context.Canceled)
}

// JobStatus is the JSON-friendly snapshot of a job.
type JobStatus struct {
	ID        string     `json:"id"`
	Label     string     `json:"label,omitempty"`
	Key       string     `json:"key,omitempty"`
	State     State      `json:"state"`
	Cached    bool       `json:"cached"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    any        `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Label: j.label, Key: j.key, State: j.state,
		Cached: j.cached, Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == Done {
		st.Result = j.result
	}
	return st
}

// Stats is a scheduler counter snapshot (served by elfd's /debug/stats).
type Stats struct {
	Workers     int     `json:"workers"`
	QueueDepth  int     `json:"queueDepth"`
	Queued      int     `json:"queued"`
	Running     int     `json:"running"`
	Submitted   uint64  `json:"submitted"`
	Completed   uint64  `json:"completed"`
	Failed      uint64  `json:"failed"`
	Canceled    uint64  `json:"canceled"`
	Coalesced   uint64  `json:"coalesced"`
	TaskSeconds float64 `json:"taskSeconds"`
	// QueueHighWater is the deepest the queue has been since start — the
	// capacity-planning companion to the instantaneous Queued.
	QueueHighWater int        `json:"queueHighWater"`
	Cache          CacheStats `json:"cache"`
}

// retainFinished is how many finished jobs stay reachable through Get.
// Older finished jobs are forgotten so a long-lived server's job table
// stays bounded; queued and running jobs are never forgotten.
const retainFinished = 4096

// Scheduler runs submitted jobs on a bounded worker pool.
type Scheduler struct {
	cfg   Config
	cache *Cache
	// base is the root every job context derives from, so Shutdown can
	// cancel all in-flight work at once; it is process-scoped, not
	// request-scoped, which is why storing it here is sound.
	//lint:ignore ctx the scheduler is the context root jobs derive from (Shutdown cancels through it)
	base   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	// changed is closed, and replaced, whenever a queued job may start or
	// a worker may leave a closed pool; see next.
	changed  chan struct{}
	queue    []*Job          // queued jobs, oldest first
	jobs     map[string]*Job // live jobs and the last retainFinished finished ones, by id
	inflight map[string]*Job // queued/running cacheable jobs, by key
	finished []string        // ring of finished job ids; see retainLocked
	oldest   int             // ring index of the oldest id once finished is full
	seq      uint64
	closed   bool

	topQueued  int // queued top-level jobs; QueueDepth bounds them
	topRunning int // started, unfinished top-level jobs; Workers bounds them
	running    int // started jobs holding a worker
	released   int // started, unfinished jobs that handed their worker back
	queueHW    int

	// The counts behind Stats live in these metrics, exposed on
	// Config.Metrics.
	submitted  *obs.Counter
	coalesced  *obs.Counter
	completed  *obs.Counter
	failed     *obs.Counter
	canceled   *obs.Counter
	jobSeconds *obs.Histogram // its sum is Stats.TaskSeconds
}

// New starts a scheduler sized by cfg.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Metrics
	outcome := func(o string) *obs.Counter {
		return reg.Counter("elfd_sched_jobs_total", "Jobs finished, by outcome.", obs.L("outcome", o))
	}
	s := &Scheduler{
		cfg:      cfg,
		cache:    newCache(cfg.CacheSize, reg),
		changed:  make(chan struct{}),
		base:     ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		submitted: reg.Counter("elfd_sched_jobs_submitted_total",
			"Jobs accepted into the queue."),
		coalesced: reg.Counter("elfd_sched_jobs_coalesced_total",
			"Submissions that joined an identical in-flight job."),
		completed: outcome("done"),
		failed:    outcome("failed"),
		canceled:  outcome("canceled"),
		jobSeconds: reg.Histogram("elfd_sched_job_seconds",
			"Wall-clock runtime of executed jobs.",
			obs.ExpBuckets(0.005, 4, 8)),
	}
	reg.GaugeFunc("elfd_sched_queue_depth",
		"Jobs queued but not yet running.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.queue)) })
	reg.GaugeFunc("elfd_sched_queue_high_water",
		"Deepest queue occupancy since start.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.queueHW) })
	reg.GaugeFunc("elfd_sched_running",
		"Jobs currently executing.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.running) })
	reg.GaugeFunc("elfd_sched_workers",
		"Worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("elfd_sched_cache_entries",
		"Live result-cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("elfd_sched_cache_bytes",
		"Approximate result-cache footprint (keys + JSON-encoded values).",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit queues a task. key content-addresses the job ("" = uncacheable):
// a completed key is answered from cache without running anything (the
// returned job is born Done with Cached set), and a key already queued or
// running coalesces onto the in-flight job, which is returned as-is and
// counts one more submitter (see Wait).
//
// ctx only tells a nested submission from a top-level one; Submit never
// blocks. A nested job belongs to work already admitted, so it is never
// refused, for queue room or after Shutdown, and needs no top-level slot.
func (s *Scheduler) Submit(ctx context.Context, label, key string, task Task) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nested := s.runnerLocked(ctx) != nil
	if s.closed && !nested {
		return nil, ErrShutdown
	}
	if key != "" {
		if v, ok := s.cache.Get(key); ok {
			// Born Done: no other goroutine can reach j before s.mu
			// is released.
			j := s.newJobLocked(label, key)
			j.cached, j.state, j.result, j.finished = true, Done, v, j.submitted
			j.cancel()
			close(j.done)
			s.retainLocked(j.id)
			return j, nil
		}
		// A cancelled job stays in flight until its task returns; a new
		// submission must not inherit that cancellation.
		if infl, ok := s.inflight[key]; ok && infl.ctx.Err() == nil {
			infl.mu.Lock()
			infl.submitters++
			infl.mu.Unlock()
			s.coalesced.Inc()
			return infl, nil
		}
	}
	if !nested && s.topQueued >= s.cfg.QueueDepth {
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.cfg.QueueDepth)
	}
	j := s.newJobLocked(label, key)
	j.task, j.nested = task, nested
	s.queue = append(s.queue, j)
	if !nested {
		s.topQueued++
	}
	if key != "" {
		s.inflight[key] = j
	}
	s.submitted.Inc()
	s.queueHW = max(s.queueHW, len(s.queue))
	s.changeLocked()
	return j, nil
}

// changeLocked wakes every worker waiting in next. Caller holds s.mu.
func (s *Scheduler) changeLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// runnerLocked returns the job of s whose running task ctx descends from,
// or nil. Caller holds s.mu.
func (s *Scheduler) runnerLocked(ctx context.Context) *Job {
	w, _ := ctx.Value(runningJob{}).(*Job)
	if w == nil || w.s != s || w.state != Running {
		return nil
	}
	return w
}

// newJobLocked allocates and registers a job. Caller holds s.mu.
func (s *Scheduler) newJobLocked(label, key string) *Job {
	s.seq++
	ctx, cancel := context.WithCancel(s.base)
	j := &Job{
		id:         fmt.Sprintf("j%06d", s.seq),
		key:        key,
		label:      label,
		s:          s,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		state:      Queued,
		submitters: 1,
		submitted:  time.Now(),
	}
	s.jobs[j.id] = j
	return j
}

// retainLocked records a finished job, forgetting the oldest finished job
// once retainFinished are held. Each job finishes, and is recorded, once.
// Caller holds s.mu.
func (s *Scheduler) retainLocked(id string) {
	if len(s.finished) < retainFinished {
		s.finished = append(s.finished, id)
		return
	}
	delete(s.jobs, s.finished[s.oldest])
	s.finished[s.oldest] = id
	s.oldest = (s.oldest + 1) % retainFinished
}

// Get returns a job by id: any queued or running job, or one of the last
// retainFinished finished jobs.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:        s.cfg.Workers,
		QueueDepth:     s.cfg.QueueDepth,
		Queued:         len(s.queue),
		Running:        s.running,
		Submitted:      s.submitted.Value(),
		Completed:      s.completed.Value(),
		Failed:         s.failed.Value(),
		Canceled:       s.canceled.Value(),
		Coalesced:      s.coalesced.Value(),
		TaskSeconds:    s.jobSeconds.Sum(),
		QueueHighWater: s.queueHW,
		Cache:          s.cache.Stats(),
	}
}

// Shutdown stops accepting top-level jobs and waits for the pool to drain:
// queued jobs still run, and running jobs may submit nested jobs until
// they finish. If ctx expires first, every outstanding job is cancelled
// and Shutdown waits for the workers to notice before returning ctx.Err().
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.changeLocked()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.cancel() // abort in-flight simulations
		<-drained
		return ctx.Err()
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil || !s.run(j) {
			return // shut down, or j released this worker; see Wait
		}
	}
}

// next blocks until a queued job may start and starts it: the oldest
// nested job or, while fewer than Workers top-level jobs run, the oldest
// job. It returns nil once s is shut down with no job queued and none
// released (a released job may still submit nested jobs).
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	for {
		i := slices.IndexFunc(s.queue, func(j *Job) bool {
			return j.nested || j.state != Queued || s.topRunning < s.cfg.Workers
		})
		if i < 0 {
			if s.closed && len(s.queue) == 0 && s.released == 0 {
				s.mu.Unlock()
				return nil
			}
			changed := s.changed
			s.mu.Unlock()
			<-changed
			s.mu.Lock()
			continue
		}
		j := s.queue[i]
		s.queue = slices.Delete(s.queue, i, i+1)
		if !j.nested {
			s.topQueued--
		}
		if j.state != Queued {
			// Cancelled while queued: Cancel counted it, and it joins
			// the finished window now that it has left the queue.
			s.retainLocked(j.id)
			continue
		}
		if !j.nested {
			s.topRunning++
		}
		j.mu.Lock()
		j.state, j.started = Running, time.Now()
		j.mu.Unlock()
		s.running++
		s.mu.Unlock()
		return j
	}
}

// yield readies the running task that ctx belongs to, if it is a job of s,
// to block waiting on j: a queued j becomes nested, and the waiting job,
// if it still holds a worker, hands it to a replacement (see Wait).
func (s *Scheduler) yield(ctx context.Context, j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.runnerLocked(ctx)
	if w == nil || j.state.Terminal() {
		return
	}
	if j.state == Queued && !j.nested {
		j.nested = true
		s.topQueued--
		s.changeLocked()
	}
	if w.released {
		return
	}
	w.released = true
	s.running--
	s.released++
	// w's goroutine still counts in wg, so this Add cannot race a
	// Shutdown waiting for the count to reach zero.
	s.wg.Add(1)
	go s.worker()
}

// run executes a started job to a terminal state. It reports whether the
// calling goroutine still holds its worker.
func (s *Scheduler) run(j *Job) bool {
	ctx := context.WithValue(j.ctx, runningJob{}, j)
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	result, err := runTask(ctx, j.task)

	state := Done
	switch {
	case err == nil:
		if j.key != "" {
			s.cache.Put(j.key, result)
		}
	case errors.Is(err, context.Canceled):
		state = Canceled
	default:
		state = Failed
	}
	return s.finish(j, Running, state, result, err)
}

// finish moves j from state from to the terminal state to, unless j has
// left from already. It counts the job, drops it from the in-flight index
// and, for a job that ran, records it in the finished window, all before
// it releases the job's context and its waiters: Stats and /metrics
// include a job as soon as its Wait returns. It reports whether j finished
// still holding a worker.
func (s *Scheduler) finish(j *Job, from, to State, result any, err error) (held bool) {
	s.mu.Lock()
	j.mu.Lock()
	moved := j.state == from
	if moved {
		j.state, j.result, j.err, j.finished = to, result, err, time.Now()
		if from == Running {
			held = !j.released
			if held {
				s.running--
			} else {
				s.released--
			}
			if !j.nested {
				s.topRunning--
			}
			s.jobSeconds.Observe(j.finished.Sub(j.started).Seconds())
			s.retainLocked(j.id)
			// A top-level slot, or the last released job, is free.
			s.changeLocked()
		}
		if j.key != "" && s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		switch to {
		case Done:
			s.completed.Inc()
		case Failed:
			s.failed.Inc()
		case Canceled:
			s.canceled.Inc()
		}
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if moved {
		j.cancel()
		close(j.done)
	}
	return held
}

// runTask calls the task, converting a panic into an error so one bad
// config cannot take down the serving pool.
func runTask(ctx context.Context, task Task) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("sched: task panicked: %v", r)
		}
	}()
	return task(ctx)
}
