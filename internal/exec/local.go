package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// LocalConfig sizes the in-process backend.
type LocalConfig struct {
	// Workers is the simulation pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued cells (0 = 1024 — generous, because a
	// grid dispatcher queues bursts and a fast-failing Submit would turn
	// a full queue into a failed cell). Cells that a task of the pool
	// runs, an elfd experiment's, are nested jobs and never refused.
	QueueDepth int
	// JobTimeout bounds the runtime of each job on the pool, cells
	// included (0 = unlimited).
	JobTimeout time.Duration
	// CacheSize bounds the result cache (0 = the sched default).
	CacheSize int
	// Metrics exposes the wrapped scheduler's operational metric
	// families; nil keeps them unexposed.
	Metrics *obs.Registry
	// Probe, when non-nil, is attached to every cell's machine after
	// warmup (see eval.Params.Probe).
	Probe *pipeline.Probe
	// Events receives flight-recorder events (cache hit/miss, slow-cell,
	// error); nil drops them.
	Events *obs.Ring
	// SlowCell, when positive, is the wall-clock threshold beyond which a
	// completed cell is recorded as a slow_cell event.
	SlowCell time.Duration
	// Store, when non-nil, is the persistent result store consulted under
	// the cell key before simulating and filled after: restarts and other
	// processes sharing the store skip completed cells entirely. The
	// backend does not own the store (the caller closes it).
	Store store.Store
}

// Local is the in-process Backend: cells run on a sched worker pool as
// CellTask jobs, so identical cells coalesce in flight and are
// answered from the content-addressed result cache (and the store, when
// one is attached) afterwards. It is behaviourally identical to the eval
// layer's in-process runner — same RunCell, same determinism — plus the
// cache.
type Local struct {
	sched    *sched.Scheduler
	probe    *pipeline.Probe
	events   *obs.Ring
	store    store.Store // nil without LocalConfig.Store
	slowCell time.Duration
	cells    atomic.Uint64
	failed   atomic.Uint64
}

// NewLocal starts an in-process backend sized by cfg.
func NewLocal(cfg LocalConfig) *Local {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	return &Local{
		sched: sched.New(sched.Config{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			JobTimeout: cfg.JobTimeout,
			CacheSize:  cfg.CacheSize,
			Metrics:    cfg.Metrics,
		}),
		probe:    cfg.Probe,
		events:   cfg.Events,
		store:    cfg.Store,
		slowCell: cfg.SlowCell,
	}
}

// Scheduler returns the pool the backend runs its cells on. A server
// submits its own jobs there too, so they share one pool, queue, result
// cache and set of counters with the cells (see sched.Job.Wait).
func (l *Local) Scheduler() *sched.Scheduler { return l.sched }

// Run executes one cell on the pool, waiting for completion or ctx.
func (l *Local) Run(ctx context.Context, c eval.Cell) (eval.Result, error) {
	if err := c.Validate(); err != nil {
		return eval.Result{}, err
	}
	cellName := c.Workload + "/" + c.Config.Name()
	trace := traceOf(obs.SpanFromContext(ctx))
	start := time.Now()
	label, key, task := l.CellTask(c, nil)
	j, err := l.sched.Submit(ctx, label, key, task)
	if err != nil {
		l.failed.Add(1)
		l.events.Add(obs.Event{Kind: obs.EventError, Worker: "local", Cell: cellName,
			Trace: trace, Detail: err.Error()})
		return eval.Result{}, err
	}
	st, err := j.Wait(ctx)
	if err != nil {
		l.failed.Add(1)
		return eval.Result{}, err
	}
	switch st.State {
	case sched.Done:
		e, ok := st.Result.(EncodedResult)
		if !ok {
			l.failed.Add(1)
			return eval.Result{}, fmt.Errorf("exec: unexpected cell payload %T", st.Result)
		}
		kind := obs.EventCacheMiss
		if st.Cached {
			kind = obs.EventCacheHit
		}
		d := time.Since(start)
		l.events.Add(obs.Event{Kind: kind, Worker: "local", Cell: cellName,
			Trace: trace, Seconds: d.Seconds()})
		if !st.Cached && l.slowCell > 0 && d > l.slowCell {
			l.events.Add(obs.Event{Kind: obs.EventSlowCell, Worker: "local", Cell: cellName,
				Trace: trace, Seconds: d.Seconds(),
				Detail: fmt.Sprintf("exceeded %s threshold", l.slowCell)})
		}
		l.cells.Add(1)
		return e.Result, nil
	case sched.Canceled:
		l.failed.Add(1)
		return eval.Result{}, context.Canceled
	default:
		l.failed.Add(1)
		l.events.Add(obs.Event{Kind: obs.EventError, Worker: "local", Cell: cellName,
			Trace: trace, Detail: st.Error})
		return eval.Result{}, errors.New(st.Error)
	}
}

// Stats snapshots the backend, including the wrapped scheduler's pool and
// cache counters.
func (l *Local) Stats() Stats {
	ss := l.sched.Stats()
	s := Stats{
		Backend:   "local",
		Cells:     l.cells.Load(),
		Failed:    l.failed.Load(),
		Scheduler: &ss,
	}
	if l.store != nil {
		s.Store = l.store.Stats()
	}
	return s
}

// Close drains the pool (bounded, so a wedged simulation cannot hang
// process shutdown forever).
func (l *Local) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return l.sched.Shutdown(ctx)
}
