package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/obs"
	"elfetch/internal/store"
)

const (
	// healthPath is the worker liveness endpoint the prober polls.
	healthPath = "/v1/healthz"
	// retryMax caps the jittered exponential backoff between attempts.
	retryMax = 5 * time.Second
	// maxReplyBytes bounds the body of a worker's 200 reply to POST
	// /v1/cells: a Result encodes to well under a kilobyte, so a longer
	// reply is a broken worker, quarantined like an undecodable one.
	maxReplyBytes = 1 << 20
)

// FleetConfig wires a fleet of remote elfd workers.
type FleetConfig struct {
	// Workers is the list of worker base URLs ("http://host:port").
	Workers []string
	// Client is the HTTP client used for dispatch and health checks
	// (nil = a client with a 10-minute timeout, generous enough for a
	// long measurement cell; cancellation still flows through ctx).
	Client *http.Client
	// MaxAttempts bounds dispatch attempts per cell, across workers
	// (0 = 4).
	MaxAttempts int
	// RetryBase is the first backoff delay (0 = 100ms); each retry
	// doubles it, jittered, capped at retryMax.
	RetryBase time.Duration
	// HealthInterval paces the background health prober, which is what
	// revives quarantined workers (0 = 5s).
	HealthInterval time.Duration
	// Fallback, when non-nil, receives cells while no fleet worker is
	// healthy, so a grid degrades to local execution instead of failing.
	// The fleet owns it: Close closes it too.
	Fallback Backend
	// Metrics exposes the per-worker dispatch counters, the
	// worker_healthy gauge, the cell latency histogram and the per-hop
	// latency histograms split by outcome. Stats reads the same counters,
	// so nil only keeps them unexposed.
	Metrics *obs.Registry
	// Spans, when non-nil, collects the fleet's dispatch spans (one cell
	// span per Run, one child span per dispatch attempt). When nil the
	// fleet allocates a private log, so trace identity always flows to
	// workers even if nobody collects the spans locally. Either way the
	// log is a fixed ring: once full, each finished span overwrites the
	// oldest in O(1).
	Spans *obs.SpanLog
	// Events receives flight-recorder events (dispatch, retry,
	// quarantine, revive, fallback, slow-cell); nil drops them.
	Events *obs.Ring
	// SlowCell, when positive, is the wall-clock threshold beyond which a
	// completed cell is recorded as a slow_cell event.
	SlowCell time.Duration
	// Store, when non-nil, is the persistent result store: consulted
	// under the cell key before dispatching (a hit skips the fleet
	// entirely) and given the worker's reply bytes after a successful
	// remote run. The fleet does not own the store (the caller closes
	// it); the fallback backend fills it on its own when it carries the
	// same store.
	Store store.Store
}

// worker is one remote elfd's dispatch ledger. Its counts are the
// elf_exec_cells_*_total{worker} counters.
type worker struct {
	addr string

	healthy    atomic.Bool // exposed as elf_exec_worker_healthy
	inFlight   atomic.Int64
	dispatched *obs.Counter
	retried    *obs.Counter
	requeued   *obs.Counter
}

// Fleet shards cells across remote elfd workers. Dispatch is
// round-robin over the healthy set; a worker that errors in a way that
// suggests infrastructure trouble (network failure, unexpected 5xx) is
// quarantined and its cell re-queued to another worker, and a background
// prober revives quarantined workers that pass their health check. When
// no worker is healthy the fleet degrades to its local fallback, so a
// grid never hard-fails just because the fleet is down.
//
// The sim core's determinism makes all of this safe: any worker — or the
// fallback — produces bit-identical Results for a given cell, so retries
// and requeues cannot change a grid's output, only its wall-clock time.
type Fleet struct {
	cfg     FleetConfig
	client  *http.Client
	workers []*worker
	rr      atomic.Uint64 // round-robin cursor

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	cells    atomic.Uint64
	failed   atomic.Uint64
	fallback atomic.Uint64

	spans  *obs.SpanLog
	events *obs.Ring

	cellSeconds *obs.Histogram
	hopSeconds  map[string]*obs.Histogram // by outcome

	mu  sync.Mutex // guards rng (math/rand.Rand is not race-safe)
	rng *rand.Rand
}

// NewFleet starts a fleet backend over cfg.Workers. The health prober
// starts immediately; workers begin healthy and are quarantined on their
// first failure.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("exec: fleet needs at least one worker address")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Minute}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 5 * time.Second
	}
	f := &Fleet{
		cfg:    cfg,
		client: cfg.Client,
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		spans:  cfg.Spans,
		events: cfg.Events,
	}
	if f.spans == nil {
		f.spans = obs.NewSpanLog(0)
	}
	reg := cfg.Metrics
	for _, addr := range cfg.Workers {
		addr = strings.TrimRight(addr, "/")
		lbl := obs.L("worker", addr)
		w := &worker{
			addr: addr,
			dispatched: reg.Counter("elf_exec_cells_dispatched_total",
				"Cells posted to a fleet worker (including later failures).", lbl),
			retried: reg.Counter("elf_exec_cells_retried_total",
				"Cell dispatch attempts that failed retriably.", lbl),
			requeued: reg.Counter("elf_exec_cells_requeued_total",
				"Cells re-queued to another worker after a quarantine.", lbl),
		}
		w.healthy.Store(true)
		reg.GaugeFunc("elf_exec_worker_healthy",
			"1 while the worker is in the dispatchable set, 0 while quarantined.",
			func() float64 {
				if w.healthy.Load() {
					return 1
				}
				return 0
			}, lbl)
		f.workers = append(f.workers, w)
	}
	f.cellSeconds = reg.Histogram("elf_exec_cell_seconds",
		"Wall-clock time to complete one cell through the fleet.",
		obs.ExpBuckets(0.005, 4, 8))
	f.hopSeconds = make(map[string]*obs.Histogram)
	for _, outcome := range []string{hopOK, hopRetry, hopRequeue, hopPermanent} {
		f.hopSeconds[outcome] = reg.Histogram("elf_exec_hop_seconds",
			"Wall-clock time of one dispatch attempt (coordinator to worker and back), by outcome.",
			obs.ExpBuckets(0.001, 4, 8), obs.L("outcome", outcome))
	}
	f.wg.Add(1)
	go f.probeLoop()
	return f, nil
}

// Hop outcomes labelling elf_exec_hop_seconds.
const (
	hopOK        = "ok"
	hopRetry     = "retry"
	hopRequeue   = "requeue"
	hopPermanent = "permanent"
)

// Spans exposes the fleet's span log (always non-nil), so drivers can
// export the stitched trace after a grid run.
func (f *Fleet) Spans() *obs.SpanLog { return f.spans }

// observeHop feeds one dispatch attempt into the outcome-split histogram.
func (f *Fleet) observeHop(outcome string, d time.Duration) {
	f.hopSeconds[outcome].Observe(d.Seconds())
}

// probeLoop periodically health-checks every worker, quarantining ones
// that fail and reviving ones that recover.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			for _, w := range f.workers {
				now := f.probe(w)
				if was := w.healthy.Swap(now); now && !was {
					f.events.Add(obs.Event{Kind: obs.EventRevive, Worker: w.addr,
						Detail: "health check passed after quarantine"})
				}
			}
		}
	}
}

// probe is one liveness check.
func (f *Fleet) probe(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.addr+healthPath, nil)
	if err != nil {
		return false
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false
	}
	obs.DrainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// pick returns the next healthy worker round-robin, or nil when the
// whole fleet is quarantined.
func (f *Fleet) pick() *worker {
	n := uint64(len(f.workers))
	start := f.rr.Add(1)
	for i := uint64(0); i < n; i++ {
		if w := f.workers[(start+i)%n]; w.healthy.Load() {
			return w
		}
	}
	return nil
}

// backoff returns the jittered delay before attempt (1-based retry
// count): base·2^(attempt-1) capped at retryMax, scaled by a random
// factor in [0.5, 1) so a burst of retries doesn't re-synchronise.
func (f *Fleet) backoff(attempt int) time.Duration {
	d := f.cfg.RetryBase << (attempt - 1)
	if d > retryMax || d <= 0 {
		d = retryMax
	}
	f.mu.Lock()
	jitter := 0.5 + f.rng.Float64()/2
	f.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// cellError is a classified dispatch failure.
type cellError struct {
	err        error
	permanent  bool // deterministic failure: retrying cannot change it
	quarantine bool // infrastructure failure: sideline the worker
}

func (e *cellError) Error() string { return e.err.Error() }
func (e *cellError) Unwrap() error { return e.err }

// post dispatches one cell to one worker and classifies the outcome.
// hop, when non-nil, is the attempt's span: its identity crosses the wire
// as `traceparent` (stitching the worker into the coordinator's trace)
// and as `X-Request-ID` (one ID per attempt, joining worker access logs
// to this exact dispatch).
func (f *Fleet) post(ctx context.Context, w *worker, body []byte, hop *obs.Span) (EncodedResult, *cellError) {
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	w.dispatched.Inc()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.addr+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return EncodedResult{}, &cellError{err: err, permanent: true}
	}
	req.Header.Set("Content-Type", "application/json")
	if hop != nil {
		req.Header.Set(obs.TraceparentHeader, hop.Traceparent())
		req.Header.Set("X-Request-ID", hop.ID.String())
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return EncodedResult{}, &cellError{err: ctx.Err(), permanent: true}
		}
		return EncodedResult{}, &cellError{err: fmt.Errorf("%s: %w", w.addr, err), quarantine: true}
	}
	// Bounded drain-before-close: an over-long reply and the envelope
	// decoder stop short of the body's end, and error arms may abandon it
	// entirely; reading the remainder out is what lets the transport reuse
	// the connection.
	defer obs.DrainClose(resp.Body)

	if resp.StatusCode == http.StatusOK {
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
		if err == nil && len(b) > maxReplyBytes {
			err = fmt.Errorf("reply exceeds %d bytes", maxReplyBytes)
		}
		var e EncodedResult
		if err == nil {
			e, err = decodeResult(b)
		}
		if err != nil {
			return EncodedResult{}, &cellError{
				err:        fmt.Errorf("%s: undecodable result: %w", w.addr, err),
				quarantine: true,
			}
		}
		return e, nil
	}

	var env ErrorEnvelope
	msg := resp.Status
	code := ""
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil && env.Error.Message != "" {
		code = env.Error.Code
		msg = env.Error.Message
		if env.Error.Detail != "" {
			msg += ": " + env.Error.Detail
		}
	}
	werr := fmt.Errorf("%s: %s (%s)", w.addr, msg, resp.Status)
	switch {
	case code == CodeSimFailed || (resp.StatusCode >= 400 && resp.StatusCode < 500):
		// The sim is deterministic: a cell the worker rejected or failed
		// on would fail identically anywhere. Don't blame the worker.
		return EncodedResult{}, &cellError{err: werr, permanent: true}
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Overloaded or draining, not broken — retry without quarantine.
		return EncodedResult{}, &cellError{err: werr}
	default:
		return EncodedResult{}, &cellError{err: werr, quarantine: true}
	}
}

// Run dispatches one cell: round-robin over healthy workers with bounded
// jittered retries, quarantine-and-requeue on infrastructure failure,
// and the local fallback once no worker is healthy. The whole Run is one
// "cell" span (a child of any span carried by ctx — the grid's root);
// every dispatch attempt is a "dispatch" child span whose identity
// travels to the worker as traceparent and X-Request-ID.
func (f *Fleet) Run(ctx context.Context, c eval.Cell) (result eval.Result, runErr error) {
	if f.closed.Load() {
		return eval.Result{}, errors.New("exec: fleet closed")
	}
	if err := c.Validate(); err != nil {
		return eval.Result{}, err
	}
	body, err := json.Marshal(c)
	if err != nil {
		return eval.Result{}, fmt.Errorf("exec: encode cell: %w", err)
	}

	cellName := c.Workload + "/" + c.Config.Name()
	var key string // the store's cell key; hashing costs µs, so only with a store
	if f.cfg.Store != nil {
		key = cellKey(c)
		if e, ok := loadResult(f.cfg.Store, key); ok {
			f.events.Add(obs.Event{Kind: obs.EventCacheHit, Cell: cellName,
				Trace: traceOf(obs.SpanFromContext(ctx))})
			f.cells.Add(1)
			return e.Result, nil
		}
	}
	span := f.spans.StartSpan(obs.SpanFromContext(ctx), "cell")
	if span != nil {
		span.SetAttr("cell", cellName)
	}
	start := time.Now()
	defer func() {
		if span != nil {
			span.SetError(runErr)
			span.Finish()
		}
		if d := time.Since(start); runErr == nil && f.cfg.SlowCell > 0 && d > f.cfg.SlowCell {
			f.events.Add(obs.Event{Kind: obs.EventSlowCell, Cell: cellName,
				Trace: traceOf(span), Seconds: d.Seconds(),
				Detail: fmt.Sprintf("exceeded %s threshold", f.cfg.SlowCell)})
		}
	}()
	ctx = obs.ContextWithSpan(ctx, span)

	var lastErr error
	for attempt := 1; attempt <= f.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			f.failed.Add(1)
			return eval.Result{}, err
		}
		w := f.pick()
		if w == nil {
			return f.runFallback(ctx, c, lastErr)
		}
		hop := f.spans.StartSpan(span, "dispatch")
		if hop != nil {
			hop.Worker = w.addr
			hop.SetAttr("cell", cellName)
			hop.SetAttr("attempt", strconv.Itoa(attempt))
		}
		hopStart := time.Now()
		e, cerr := f.post(ctx, w, body, hop)
		hopTime := time.Since(hopStart)
		if cerr == nil {
			if hop != nil {
				hop.Finish()
			}
			f.observeHop(hopOK, hopTime)
			f.events.Add(obs.Event{Kind: obs.EventDispatch, Worker: w.addr, Cell: cellName,
				Trace: traceOf(span), Seconds: hopTime.Seconds()})
			f.cells.Add(1)
			f.cellSeconds.Observe(time.Since(start).Seconds())
			if f.cfg.Store != nil {
				_ = f.cfg.Store.Put(key, e.encoded) // dropped on failure, like a miss
			}
			return e.Result, nil
		}
		if hop != nil {
			hop.SetError(cerr)
			hop.Finish()
		}
		lastErr = cerr
		if cerr.permanent {
			f.observeHop(hopPermanent, hopTime)
			f.events.Add(obs.Event{Kind: obs.EventError, Worker: w.addr, Cell: cellName,
				Trace: traceOf(span), Detail: cerr.Error(), Seconds: hopTime.Seconds()})
			f.failed.Add(1)
			return eval.Result{}, fmt.Errorf("exec: cell %s: %w", cellName, cerr)
		}
		w.retried.Inc()
		if cerr.quarantine {
			f.observeHop(hopRequeue, hopTime)
			w.healthy.Store(false)
			w.requeued.Inc()
			f.events.Add(obs.Event{Kind: obs.EventQuarantine, Worker: w.addr, Cell: cellName,
				Trace: traceOf(span), Detail: cerr.Error()})
			f.events.Add(obs.Event{Kind: obs.EventRequeue, Worker: w.addr, Cell: cellName,
				Trace: traceOf(span)})
			// The cell goes straight back in the queue: the next attempt
			// picks a different (healthy) worker, no backoff needed.
			continue
		}
		f.observeHop(hopRetry, hopTime)
		f.events.Add(obs.Event{Kind: obs.EventRetry, Worker: w.addr, Cell: cellName,
			Trace: traceOf(span), Detail: cerr.Error(), Seconds: hopTime.Seconds()})
		select {
		case <-ctx.Done():
			f.failed.Add(1)
			return eval.Result{}, ctx.Err()
		case <-time.After(f.backoff(attempt)):
		}
	}
	// Retries exhausted without a permanent verdict — infrastructure
	// flapping. One last chance on the fallback before giving up.
	return f.runFallback(ctx, c, lastErr)
}

// traceOf extracts a span's trace ID as a string ("" for no span).
func traceOf(s *obs.Span) string {
	if s == nil {
		return ""
	}
	return s.Trace.String()
}

// runFallback degrades one cell to the local backend (or fails the cell
// when no fallback was configured).
func (f *Fleet) runFallback(ctx context.Context, c eval.Cell, cause error) (eval.Result, error) {
	cellName := c.Workload + "/" + c.Config.Name()
	if f.cfg.Fallback == nil {
		f.failed.Add(1)
		if cause == nil {
			cause = errors.New("no healthy workers")
		}
		f.events.Add(obs.Event{Kind: obs.EventError, Cell: cellName,
			Trace: traceOf(obs.SpanFromContext(ctx)), Detail: cause.Error()})
		return eval.Result{}, fmt.Errorf("exec: fleet exhausted for cell %s: %w",
			cellName, cause)
	}
	f.fallback.Add(1)
	detail := "no healthy workers"
	if cause != nil {
		detail = cause.Error()
	}
	f.events.Add(obs.Event{Kind: obs.EventFallback, Worker: "local", Cell: cellName,
		Trace: traceOf(obs.SpanFromContext(ctx)), Detail: detail})
	hop := f.spans.StartSpan(obs.SpanFromContext(ctx), "fallback")
	if hop != nil {
		hop.Worker = "local"
		hop.SetAttr("cell", cellName)
	}
	r, err := f.cfg.Fallback.Run(ctx, c)
	if hop != nil {
		hop.SetError(err)
		hop.Finish()
	}
	if err != nil {
		f.failed.Add(1)
		return eval.Result{}, err
	}
	f.cells.Add(1)
	return r, nil
}

// Stats snapshots the fleet, including each worker's ledger. The
// fallback's own counters are not merged in; Fallback counts how many
// cells it absorbed.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Backend:  "fleet",
		Cells:    f.cells.Load(),
		Failed:   f.failed.Load(),
		Fallback: f.fallback.Load(),
	}
	for _, w := range f.workers {
		st.Workers = append(st.Workers, WorkerStats{
			Addr:       w.addr,
			Healthy:    w.healthy.Load(),
			InFlight:   w.inFlight.Load(),
			Dispatched: w.dispatched.Value(),
			Retried:    w.retried.Value(),
			Requeued:   w.requeued.Value(),
		})
	}
	if f.cfg.Store != nil {
		st.Store = f.cfg.Store.Stats()
	}
	return st
}

// Close stops the health prober and closes the fallback backend.
func (f *Fleet) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	close(f.stop)
	f.wg.Wait()
	if f.cfg.Fallback != nil {
		return f.cfg.Fallback.Close()
	}
	return nil
}
