// Package exec provides pluggable execution backends for the evaluation
// grid. The eval layer describes work as eval.Cells — one (workload,
// configuration, run-length) measurement each — and fans grids out
// through an eval.CellRunner; this package supplies the two runners:
//
//   - Local wraps an internal/sched worker pool plus its content-addressed
//     result cache, so in-process grids coalesce duplicate cells and
//     answer repeats without re-simulating.
//   - Fleet shards cells across a fleet of remote elfd workers over
//     HTTP (POST /v1/cells), with per-worker health tracking, bounded
//     retries with exponential backoff and jitter, quarantine-and-requeue
//     on worker failure, and graceful degradation to a local fallback
//     when the whole fleet is unreachable.
//
// This package is also the only owner of how one cell runs against the
// scheduler cache and the persistent store, and of a finished cell's
// bytes: the cell key, the store-behind-cache task (the Local method
// CellTask, which Local.Run, elfd's POST /v1/cells and elfd's run jobs of
// registered workloads submit to the Local's scheduler) and its payload,
// an EncodedResult holding the eval.Result and the JSON it was encoded
// into once or read from. The stored encoding is the payload's bytes (an
// undecodable value is a miss), and POST /v1/cells sends them verbatim;
// Fleet decodes a worker's reply once and stores the same bytes.
//
// The sim core is deterministic (enforced by elflint and the runtime
// determinism tests), so a cell produces bit-identical Results no matter
// which backend — or which machine — executes it. That equivalence is
// what makes the backends interchangeable and the fleet testable against
// the local backend byte-for-byte.
//
// Wire contract (shared with cmd/elfd): a worker accepts an eval.Cell as
// the JSON body of POST /v1/cells and answers 200 with an eval.Result, or
// an error envelope {"error":{"code","message","detail"}} whose code
// classifies the failure — "sim_failed" and 4xx codes are permanent
// (retrying elsewhere cannot help, the sim is deterministic), everything
// else is infrastructure trouble worth retrying on another worker.
// GET /v1/healthz answers 200 when the worker can accept cells.
package exec

import (
	"context"
	"strings"

	"elfetch/internal/eval"
	"elfetch/internal/obs"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// Backend executes evaluation cells. It extends eval.CellRunner with
// lifecycle and introspection, so drivers (elfbench, elfd's coordinator
// mode) can manage the backend they dispatch through.
type Backend interface {
	// Run executes one cell to completion, honouring ctx. It satisfies
	// eval.CellRunner, so a Backend plugs directly into
	// eval.Params.Runner.
	Run(ctx context.Context, c eval.Cell) (eval.Result, error)
	// Stats snapshots the backend's dispatch counters.
	Stats() Stats
	// Close releases the backend's resources (worker pool, health
	// checker, fallback). A closed backend fails further Run calls.
	Close() error
}

// Both backends must satisfy the interface, and the interface must keep
// satisfying the eval layer's dispatch contract.
var (
	_ Backend         = (*Local)(nil)
	_ Backend         = (*Fleet)(nil)
	_ eval.CellRunner = (Backend)(nil)
)

// Error-envelope codes of the wire contract. Fleet classifies a failed
// dispatch by them: CodeSimFailed and any 4xx are permanent (the sim is
// deterministic, so retrying elsewhere cannot help); the rest are
// infrastructure trouble worth retrying on another worker. Renaming one
// changes how every coordinator treats it.
const (
	CodeBadRequest   = "bad_request"
	CodeNotFound     = "not_found"
	CodeConflict     = "conflict"
	CodeCanceled     = "canceled"
	CodeQueueFull    = "queue_full"
	CodeShuttingDown = "shutting_down"
	CodeSimFailed    = "sim_failed"
	CodeInternal     = "internal"
)

// ErrorEnvelope is the uniform /v1 error body:
// {"error":{"code","message","detail","trace"}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload. Code is one of the Code constants,
// Message the human-readable cause and Detail optional context (which
// sub-system, what limit).
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
	// Trace echoes the requester's trace id (from `traceparent`), so an
	// error a coordinator logs can be joined to the worker's view of it.
	Trace string `json:"trace,omitempty"`
}

// SplitWorkers parses a -fleet flag value, a comma-separated list of
// worker base URLs, dropping blanks. Every command runs in fleet mode
// exactly when the list is non-empty.
func SplitWorkers(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// NewBackend builds the backend a command runs its cells through: a Local
// sized and wired by cfg or, when addrs lists fleet workers, the Fleet over
// them with that Local as its fallback. The Fleet shares cfg's registry,
// flight recorder, slow-cell threshold and store, and records its spans in
// spans. NewBackend returns the Local too; closing the backend closes it.
func NewBackend(addrs []string, cfg LocalConfig, spans *obs.SpanLog) (*Local, Backend, error) {
	local := NewLocal(cfg)
	if len(addrs) == 0 {
		return local, local, nil
	}
	f, err := NewFleet(FleetConfig{Workers: addrs, Fallback: local, Metrics: cfg.Metrics,
		Spans: spans, Events: cfg.Events, SlowCell: cfg.SlowCell, Store: cfg.Store})
	if err != nil {
		local.Close()
		return nil, nil, err
	}
	return local, f, nil
}

// WorkerStats is one fleet worker's dispatch ledger.
type WorkerStats struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Healthy is false while the worker is quarantined.
	Healthy bool `json:"healthy"`
	// InFlight is the number of cells currently posted to the worker.
	InFlight int64 `json:"inFlight"`
	// Dispatched counts cells posted (including ones that later failed).
	Dispatched uint64 `json:"dispatched"`
	// Retried counts dispatch attempts that failed retriably.
	Retried uint64 `json:"retried"`
	// Requeued counts cells re-queued to another worker because this one
	// was quarantined mid-cell.
	Requeued uint64 `json:"requeued"`
}

// Stats is a point-in-time backend counter snapshot.
type Stats struct {
	// Backend is "local" or "fleet".
	Backend string `json:"backend"`
	// Cells counts successfully completed cells.
	Cells uint64 `json:"cells"`
	// Failed counts cells that exhausted every avenue and returned an
	// error.
	Failed uint64 `json:"failed"`
	// Fallback counts cells the fleet handed to its local fallback.
	Fallback uint64 `json:"fallback,omitempty"`
	// Scheduler carries the local backend's pool/cache counters.
	Scheduler *sched.Stats `json:"scheduler,omitempty"`
	// Workers carries the fleet's per-worker ledgers.
	Workers []WorkerStats `json:"workers,omitempty"`
	// Store carries per-tier persistent-store counters when a store is
	// attached.
	Store []store.TierStats `json:"store,omitempty"`
}
