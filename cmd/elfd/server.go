// elfd's HTTP surface: request decoding, job construction and the
// endpoints. The server is a thin adapter — all execution policy (worker
// pool, queue bounds, timeouts, dedupe, caching) lives in internal/sched,
// and all simulation logic in internal/eval.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/report"
	"elfetch/internal/sched"
	"elfetch/internal/workload"
)

// serverOptions carries the optional wiring newServer accepts.
type serverOptions struct {
	// Metrics is the registry behind GET /metrics (nil = a fresh private
	// registry, so the endpoint always works).
	Metrics *obs.Registry
	// Logger receives access logs and job lifecycle events (nil = discard).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Backend runs every experiment's cells; it is required. A single
	// node passes the Local it serves over, a coordinator the Fleet over
	// that Local. Run jobs and POST /v1/cells always run on the Local's
	// scheduler — a worker forwarding its cells back out would loop.
	Backend exec.Backend
	// Events is the flight-recorder ring behind GET /debug/events (nil =
	// a fresh private ring, so the endpoint always works). Share it with
	// the execution backend so dispatch events land there.
	Events *obs.Ring
	// Spans is the span log behind GET /debug/trace and the coordinator's
	// grid root spans (nil = a fresh private log). Share it with the
	// fleet backend so one grid run yields one stitched trace.
	Spans *obs.SpanLog
	// Federation, when non-nil, merges the scraped worker snapshots into
	// GET /metrics (the fleet view) and adds per-worker scrape status to
	// /debug/stats. The caller owns the scrape cadence.
	Federation *obs.Federation
}

// server wires the scheduler to the HTTP mux.
type server struct {
	local    *exec.Local
	sched    *sched.Scheduler
	defaults eval.Params
	start    time.Time
	mux      *http.ServeMux
	reg      *obs.Registry
	probe    *pipeline.Probe
	log      *slog.Logger
	backend  exec.Backend
	events   *obs.Ring
	spans    *obs.SpanLog
	fed      *obs.Federation
	reqID    atomic.Uint64
}

// newServer serves over local: the server submits every job, run job and
// POST /v1/cells to local's scheduler, the pool the Local runs experiment
// cells on too, and runs its cells on local's store and probe.
func newServer(local *exec.Local, defaults eval.Params, opt serverOptions) *server {
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.Events == nil {
		opt.Events = obs.NewRing(0)
	}
	if opt.Spans == nil {
		opt.Spans = obs.NewSpanLog(0)
	}
	srv := &server{
		local: local, sched: local.Scheduler(), defaults: defaults, start: time.Now(),
		mux: http.NewServeMux(), reg: opt.Metrics, log: opt.Logger, backend: opt.Backend,
		events: opt.Events, spans: opt.Spans, fed: opt.Federation,
	}
	// Registering the probe up front makes the four elf_* histogram
	// families visible on /metrics from the first scrape, even before any
	// simulation has run.
	srv.probe = eval.NewProbe(srv.reg)
	srv.reg.GaugeFunc("elfd_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(srv.start).Seconds() })
	// Pre-register the common status classes so the family shows up on the
	// first scrape instead of only after it.
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		srv.reg.Counter("elfd_http_requests_total",
			"HTTP requests served, by status class.", obs.L("code", class))
	}
	srv.mux.HandleFunc("POST /v1/cells", srv.handleCell)
	srv.mux.HandleFunc("GET /v1/healthz", srv.handleHealthz)
	srv.mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	srv.mux.HandleFunc("GET /v1/jobs/{id}", srv.handleJob)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/trace", srv.handleJobTrace)
	srv.mux.HandleFunc("DELETE /v1/jobs/{id}", srv.handleCancel)
	srv.mux.HandleFunc("GET /v1/workloads", srv.handleWorkloads)
	srv.mux.HandleFunc("GET /v1/experiments/{name}", srv.handleExperiment)
	if srv.fed != nil {
		// Coordinator: /metrics is the fleet view — own registry merged
		// with the latest worker snapshots under the federation rules.
		srv.mux.Handle("GET /metrics", obs.FleetHandler(srv.reg, srv.fed))
	} else {
		srv.mux.Handle("GET /metrics", obs.Handler(srv.reg))
	}
	srv.mux.HandleFunc("GET /debug/stats", srv.handleStats)
	srv.mux.HandleFunc("GET /debug/events", srv.handleEvents)
	srv.mux.HandleFunc("GET /debug/trace", srv.handleDebugTrace)
	srv.mux.Handle("GET /debug/vars", expvar.Handler())
	if opt.Pprof {
		srv.mux.HandleFunc("/debug/pprof/", pprof.Index)
		srv.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		srv.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		srv.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		srv.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return srv
}

// statusWriter captures the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP is the access-log middleware: every request gets an id
// (reusing the caller's X-Request-ID when present — the fleet coordinator
// sends one per dispatch attempt — else a process-unique one), returned
// as X-Request-ID and attached to all log lines it produces, plus a
// structured access-log line and a status-class counter. An incoming
// `traceparent` header is echoed back and its trace id joins the access
// log, so worker-side lines stitch into the coordinator's trace.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("r%06d", s.reqID.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	trace := ""
	if tr, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		trace = tr.String()
		w.Header().Set(obs.TraceparentHeader, r.Header.Get(obs.TraceparentHeader))
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	begin := time.Now()
	log := s.log.With("req", id)
	if trace != "" {
		log = log.With("trace", trace)
	}
	s.mux.ServeHTTP(sw, r.WithContext(withReqLog(r.Context(), log)))
	s.reg.Counter("elfd_http_requests_total", "HTTP requests served, by status class.",
		obs.L("code", fmt.Sprintf("%dxx", sw.code/100))).Inc()
	attrs := []any{"req", id, "method", r.Method, "path", r.URL.Path,
		"status", sw.code, "dur", time.Since(begin).Round(time.Microsecond)}
	if trace != "" {
		attrs = append(attrs, "trace", trace)
	}
	s.log.Info("http", attrs...)
}

// reqLogKey carries the request-scoped logger through job contexts.
type reqLogKey struct{}

func withReqLog(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, reqLogKey{}, l)
}

// reqLog returns the request's logger, falling back to the server's.
func (s *server) reqLog(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(reqLogKey{}).(*slog.Logger); ok {
		return l
	}
	return s.log
}

// countRun records a completed simulation task under its config or
// experiment name ("DCF", "U-ELF", "figure-8", ...) on elfd_runs_total,
// which /debug/stats reads back as variantRuns.
func (s *server) countRun(name string) {
	s.reg.Counter("elfd_runs_total", "Completed simulation tasks, by configuration.",
		obs.L("config", name)).Inc()
}

// httpError is an error with an HTTP status and an envelope code (one of
// the exec.Code* constants, which the fleet backend classifies failures by).
type httpError struct {
	status int
	code   string
	err    error
	detail string
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: exec.CodeBadRequest, err: fmt.Errorf(format, args...)}
}

func notFound(err error) *httpError {
	return &httpError{status: http.StatusNotFound, code: exec.CodeNotFound, err: err}
}

func conflict(err error) *httpError {
	return &httpError{status: http.StatusConflict, code: exec.CodeConflict, err: err}
}

// writeErr renders any error as the JSON error envelope, classifying
// plain errors by sentinel and defaulting to internal/500. The request's
// trace id, when one was carried, is echoed in the envelope.
func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	code := exec.CodeInternal
	detail := ""
	var he *httpError
	switch {
	case errors.As(err, &he):
		status, code, detail = he.status, he.code, he.detail
		if code == "" {
			code = exec.CodeInternal
		}
	case errors.Is(err, sched.ErrQueueFull):
		status, code = http.StatusServiceUnavailable, exec.CodeQueueFull
		detail = "the job queue is at capacity; retry with backoff"
	case errors.Is(err, sched.ErrShutdown):
		status, code = http.StatusServiceUnavailable, exec.CodeShuttingDown
		detail = "the server is draining; submit to another worker"
	case errors.Is(err, context.Canceled):
		status, code = http.StatusConflict, exec.CodeCanceled
	}
	trace := ""
	if tr, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		trace = tr.String()
	}
	writeJSON(w, status, exec.ErrorEnvelope{Error: exec.ErrorBody{
		Code: code, Message: err.Error(), Detail: detail, Trace: trace,
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxRequestBytes bounds the body of POST /v1/cells and POST /v1/jobs;
// a longer one answers 400 bad_request. A cell is about 620 bytes and a
// job with workloadJSON a few KB.
const maxRequestBytes = 1 << 20

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	// Kind selects the job: "run" (default; one workload × one config)
	// or the name of a registered experiment (eval.ExperimentNames:
	// "figure-6" … "figure-9", "btb", "ablate", "sweep-faq",
	// "sweep-depth"), which runs its whole cell list.
	Kind string `json:"kind,omitempty"`

	// Workload names a registered workload (run kind); WorkloadJSON
	// supplies a custom profile instead (see internal/workload's schema).
	Workload     string          `json:"workload,omitempty"`
	WorkloadJSON json.RawMessage `json:"workloadJSON,omitempty"`

	// Variant is an ELF variant name ("dcf", "lelf", ..., "uelf"); NoDCF
	// selects the coupled baseline instead.
	Variant string `json:"variant,omitempty"`
	NoDCF   bool   `json:"noDCF,omitempty"`

	// Warmup/Measure override the server defaults when non-nil.
	Warmup  *uint64 `json:"warmup,omitempty"`
	Measure *uint64 `json:"measure,omitempty"`

	// Trace (run kind only) records a cycle-level pipeline trace of the
	// measurement window, retrievable as Chrome trace JSON from
	// GET /v1/jobs/{id}/trace. TraceMax bounds the recorded instruction
	// events (0 = 4096, capped at 65536).
	Trace    bool `json:"trace,omitempty"`
	TraceMax int  `json:"traceMax,omitempty"`
}

// Trace event bounds.
const (
	defaultTraceMax = 4096
	maxTraceMax     = 65536
)

// params resolves the request's run lengths against the server defaults,
// attaches the server's registry-backed probe (custom and traced runs
// simulate in the job itself) and sends experiment cells through the
// backend.
func (s *server) params(req *jobRequest) eval.Params {
	p := s.defaults
	if req.Warmup != nil {
		p.Warmup = *req.Warmup
	}
	if req.Measure != nil {
		p.Measure = *req.Measure
	}
	p.Probe = s.probe
	p.Runner = s.backend
	return p
}

// experimentResult is an experiment job's cached payload: the rendered
// table and the ordered cell results (stable JSON — nothing in it depends
// on map iteration order).
type experimentResult struct {
	Table *report.Table `json:"table"`
	Cells eval.Results  `json:"cells"`
}

// buildJob validates a request and returns the job label, content-address
// key and task. Validation happens here, synchronously, so bad requests
// fail with a 4xx instead of a failed job.
func (s *server) buildJob(req *jobRequest) (label, key string, task sched.Task, err error) {
	p := s.params(req)
	if err := p.Validate(); err != nil {
		return "", "", nil, badRequest("%v", err)
	}
	if req.Kind == "" || req.Kind == "run" {
		return s.buildRun(req, p)
	}
	if req.Trace {
		return "", "", nil, badRequest("trace is only supported for run jobs, not %q", req.Kind)
	}
	return s.buildExperiment(req.Kind, p)
}

// buildExperiment assembles a registered experiment's job. Its cells go
// through the backend (p.Runner): a single node's Local shares cells
// between experiments and consults the store, and a coordinator shards
// every experiment — figures, sweeps and ablations alike — across its
// fleet.
func (s *server) buildExperiment(name string, p eval.Params) (label, key string, task sched.Task, err error) {
	if _, err := eval.LookupExperiment(name); err != nil {
		return "", "", nil, badRequest("unknown kind %q: want run or an experiment (%s)",
			name, strings.Join(eval.ExperimentNames(), ", "))
	}
	key = sched.Key("experiment", name, p.Warmup, p.Measure)
	task = func(ctx context.Context) (any, error) {
		// A grid root span, so every cell the backend fans out becomes a
		// child of one trace.
		grid := s.spans.StartSpan(obs.SpanFromContext(ctx), name)
		t, res, err := eval.RunExperiment(obs.ContextWithSpan(ctx, grid), name, p)
		grid.SetError(err)
		grid.Finish()
		if err != nil {
			return nil, err
		}
		s.countRun(name)
		return experimentResult{Table: t, Cells: res}, nil
	}
	return name, key, task, nil
}

// buildRun assembles a single (workload, config) measurement job. An
// untraced run of a registered workload is a cell: it is the Local's
// CellTask job, under the key, store and cache that POST /v1/cells uses.
// Custom-workload and traced runs share one task, which measures in the
// job itself; only a traced run attaches a tracer, and its payload is a
// runResult.
func (s *server) buildRun(req *jobRequest, p eval.Params) (label, key string, task sched.Task, err error) {
	cfg := pipeline.DefaultConfig()
	switch {
	case req.NoDCF && req.Variant != "":
		return "", "", nil, badRequest("noDCF and variant are mutually exclusive")
	case req.NoDCF:
		cfg = cfg.NoDCF()
	case req.Variant != "":
		v, err := core.ParseVariant(req.Variant)
		if err != nil {
			return "", "", nil, badRequest("%v", err)
		}
		cfg = cfg.WithVariant(v)
	}
	cfgName := cfg.Name()

	var entry *workload.Entry
	var workloadKey any
	switch {
	case req.Workload != "" && len(req.WorkloadJSON) > 0:
		return "", "", nil, badRequest("workload and workloadJSON are mutually exclusive")
	case req.Workload != "":
		e, err := workload.Lookup(req.Workload)
		if err != nil {
			return "", "", nil, notFound(err)
		}
		if !req.Trace {
			c := eval.Cell{Workload: e.Name, Config: cfg, Warmup: p.Warmup, Measure: p.Measure}
			label, key, task = s.local.CellTask(c, func() { s.countRun(cfgName) })
			return label, key, task, nil
		}
		entry = e
		workloadKey = e.Name
	case len(req.WorkloadJSON) > 0:
		name, prog, err := workload.FromJSON(strings.NewReader(string(req.WorkloadJSON)))
		if err != nil {
			return "", "", nil, badRequest("%v", err)
		}
		entry = workload.Custom(name, prog)
		// Canonicalize the profile so formatting differences (whitespace,
		// key order) in equivalent submissions still share a cache line.
		var canon any
		if err := json.Unmarshal(req.WorkloadJSON, &canon); err != nil {
			return "", "", nil, badRequest("%v", err)
		}
		workloadKey = canon
	default:
		return "", "", nil, badRequest("a run needs workload or workloadJSON")
	}

	label = fmt.Sprintf("run %s/%s", entry.Name, cfgName)
	traceMax := 0 // no tracer
	if req.Trace {
		traceMax = req.TraceMax
		switch {
		case traceMax < 0 || traceMax > maxTraceMax:
			return "", "", nil, badRequest("traceMax %d out of [0, %d]", traceMax, maxTraceMax)
		case traceMax == 0:
			traceMax = defaultTraceMax
		}
		label += " +trace"
		key = sched.Key("run-trace", cfg, workloadKey, p.Warmup, p.Measure, traceMax)
	} else {
		key = sched.Key("run", cfg, workloadKey, p.Warmup, p.Measure)
	}
	task = func(ctx context.Context) (any, error) {
		var tr *pipeline.Tracer
		if traceMax > 0 {
			tr = pipeline.NewTracer(traceMax)
		}
		r, err := eval.RunOne(ctx, entry, cfg, p, tr)
		if err != nil {
			return nil, err
		}
		var payload any = r
		if tr != nil {
			var buf strings.Builder
			if err := tr.WriteChromeTrace(&buf); err != nil {
				return nil, err
			}
			payload = runResult{Result: r, TraceJSON: []byte(buf.String())}
		}
		s.countRun(cfgName)
		return payload, nil
	}
	return label, key, task, nil
}

// runResult is a traced run's cached payload: the measurement plus the
// Chrome trace JSON. The trace is deliberately excluded from the job's
// JSON status — it can be megabytes — and served only by the dedicated
// GET /v1/jobs/{id}/trace endpoint.
type runResult struct {
	eval.Result
	TraceJSON []byte `json:"-"`
}

// handleCell executes one evaluation cell synchronously — the fleet
// worker endpoint internal/exec.Fleet dispatches to. The cell runs on this
// server's scheduler as its Local's CellTask job, the one cell path
// exec.Local.Run and run jobs also take: the same content address, the
// persistent store behind the scheduler cache, repeats answered from cache
// and identical cells coalesced in flight. The reply is the payload's
// bytes, the ones the store keeps. This handler only decodes, validates
// and maps the outcome onto the error envelope. Cells always run on this
// worker's scheduler, never through the backend — a worker forwarding its
// cells back out would loop.
func (s *server) handleCell(w http.ResponseWriter, r *http.Request) {
	var c eval.Cell
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		writeErr(w, r, badRequest("decoding cell: %v", err))
		return
	}
	if err := c.Validate(); err != nil {
		writeErr(w, r, badRequest("%v", err))
		return
	}
	if _, err := workload.Lookup(c.Workload); err != nil {
		writeErr(w, r, notFound(err))
		return
	}
	cfgName := c.Config.Name()
	label, key, task := s.local.CellTask(c, func() { s.countRun(cfgName) })
	j, err := s.sched.Submit(r.Context(), label, key, task)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	st, err := j.Wait(r.Context())
	if err != nil {
		return // client gone; job cancelled
	}
	switch st.State {
	case sched.Done:
		res, ok := st.Result.(exec.EncodedResult)
		if !ok {
			writeErr(w, r, fmt.Errorf("unexpected cell payload %T", st.Result))
			return
		}
		b, _ := res.MarshalJSON() // the bytes it holds; never an error
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	case sched.Canceled:
		writeErr(w, r, &httpError{status: http.StatusConflict, code: exec.CodeCanceled,
			err: fmt.Errorf("cell canceled: %s", st.Error)})
	default:
		// Deterministic sim: this cell fails identically on any worker.
		writeErr(w, r, &httpError{status: http.StatusInternalServerError, code: exec.CodeSimFailed,
			err: fmt.Errorf("cell failed: %s", st.Error)})
	}
}

// handleHealthz is the fleet liveness probe: 200 while the scheduler
// accepts work.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleSubmit accepts a job. With ?wait=1 the response blocks until the
// job finishes, tied to the request context — a client abort cancels the
// simulation. Otherwise it returns 202 with the job id for polling.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, r, badRequest("decoding job request: %v", err))
		return
	}
	label, key, task, err := s.buildJob(&req)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	j, err := s.sched.Submit(r.Context(), label, key, task)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	s.reqLog(r.Context()).Info("job submitted",
		"job", j.ID(), "label", label, "cached", j.Status().Cached, "wait", wantWait(r))
	if wantWait(r) {
		st, err := j.Wait(r.Context())
		if err != nil {
			// Client gone: the job was cancelled; nothing to write to.
			return
		}
		writeJSON(w, statusCode(st), st)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func wantWait(r *http.Request) bool {
	v := r.URL.Query().Get("wait")
	return v == "1" || v == "true"
}

// statusCode maps a terminal job state to an HTTP status.
func statusCode(st sched.JobStatus) int {
	switch st.State {
	case sched.Failed:
		return http.StatusInternalServerError
	case sched.Canceled:
		return http.StatusConflict
	default:
		return http.StatusOK
	}
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, notFound(fmt.Errorf("unknown job %q", r.PathValue("id"))))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJobTrace serves a traced run's Chrome trace JSON (load it in
// Perfetto or chrome://tracing).
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, notFound(fmt.Errorf("unknown job %q", r.PathValue("id"))))
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeErr(w, r, conflict(
			fmt.Errorf("job %s is %s; trace is available once done", st.ID, st.State)))
		return
	}
	rr, ok := st.Result.(runResult)
	if !ok || len(rr.TraceJSON) == 0 {
		writeErr(w, r, notFound(
			fmt.Errorf("job %s has no trace (submit with \"trace\": true)", st.ID)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(rr.TraceJSON)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, notFound(fmt.Errorf("unknown job %q", r.PathValue("id"))))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

// workloadInfo is one /v1/workloads row.
type workloadInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	Notes string `json:"notes"`
}

func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadInfo
	for _, e := range workload.All() {
		out = append(out, workloadInfo{Name: e.Name, Suite: e.Suite, Notes: e.Notes})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExperiment runs (or serves from cache) a registered experiment
// synchronously. ?format=text|csv|json selects the rendering; warmup and
// insts query parameters override the server defaults.
func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	format, err := report.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeErr(w, r, badRequest("%v", err))
		return
	}
	var req jobRequest
	if v := r.URL.Query().Get("warmup"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, r, badRequest("bad warmup %q", v))
			return
		}
		req.Warmup = &u
	}
	if v := r.URL.Query().Get("insts"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, r, badRequest("bad insts %q", v))
			return
		}
		req.Measure = &u
	}
	p := s.params(&req)
	if err := p.Validate(); err != nil {
		writeErr(w, r, badRequest("%v", err))
		return
	}
	label, key, task, err := s.buildExperiment(r.PathValue("name"), p)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	j, err := s.sched.Submit(r.Context(), label, key, task)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	st, err := j.Wait(r.Context())
	if err != nil {
		return // client gone; job cancelled
	}
	if st.State != sched.Done {
		writeJSON(w, statusCode(st), st)
		return
	}
	er, ok := st.Result.(experimentResult)
	if !ok {
		writeErr(w, r, fmt.Errorf("unexpected experiment payload %T", st.Result))
		return
	}
	switch format {
	case report.JSON:
		writeJSON(w, http.StatusOK, er)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		er.Table.Write(w, format)
	}
}

// handleEvents serves the flight recorder: the last n structured events
// (?n= bounds the dump; 0 or absent = everything retained).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeErr(w, r, badRequest("bad event count %q", v))
			return
		}
		n = parsed
	}
	w.Header().Set("Content-Type", "application/json")
	s.events.WriteJSON(w, n)
}

// handleDebugTrace serves the span log: ?format=json (default) dumps raw
// spans (re-readable by elfview -spans), ?format=chrome renders the
// stitched Chrome trace; &canonical=1 selects the normalised byte-
// deterministic export.
func (s *server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.spans.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		obs.WriteSpansJSON(w, spans)
	case "chrome":
		canonical := r.URL.Query().Get("canonical") == "1"
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, spans, canonical)
	default:
		writeErr(w, r, badRequest("unknown trace format %q (want json or chrome)", format))
	}
}

// statsResponse is /debug/stats: the live serving metrics the acceptance
// criteria key on (queue depth, cache hit rate, sims/sec, per-variant run
// counts).
type statsResponse struct {
	UptimeSeconds float64           `json:"uptimeSeconds"`
	SimsPerSec    float64           `json:"simsPerSec"`
	CacheHitRate  float64           `json:"cacheHitRate"`
	Scheduler     sched.Stats       `json:"scheduler"`
	VariantRuns   map[string]uint64 `json:"variantRuns"`
	// Exec carries the backend's counters: on a single node the Local's,
	// whose scheduler is Scheduler itself; on a coordinator the fleet's
	// dispatch ledger. Its store block carries the persistent store's
	// per-tier counters when one is attached (-store-dir).
	Exec *exec.Stats `json:"exec,omitempty"`
	// Federation carries the per-worker scrape breakdown when the server
	// federates worker metrics.
	Federation []obs.FedWorker `json:"federation,omitempty"`
	// Events summarises the flight recorder (total ever recorded).
	EventsTotal uint64 `json:"eventsTotal"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	uptime := time.Since(s.start).Seconds()
	resp := statsResponse{
		UptimeSeconds: uptime,
		Scheduler:     st,
		VariantRuns:   s.reg.CounterValues("elfd_runs_total", "config"),
	}
	if uptime > 0 {
		resp.SimsPerSec = float64(st.Completed) / uptime
	}
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		resp.CacheHitRate = float64(st.Cache.Hits) / float64(total)
	}
	es := s.backend.Stats()
	resp.Exec = &es
	if s.fed != nil {
		resp.Federation = s.fed.Summary()
	}
	resp.EventsTotal = s.events.Total()
	writeJSON(w, http.StatusOK, resp)
}
