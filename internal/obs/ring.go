package obs

// Flight recorder: a fixed-size, lock-free ring of structured events.
// Execution backends append dispatch/retry/quarantine/cache/slow-cell
// events as they happen; when a run fails (or a human asks, via elfd's
// GET /debug/events) the last N events reconstruct what the fleet was
// doing — a post-mortem artifact that costs two atomics per event while
// everything is healthy.
//
// Writers never block and never allocate beyond the one event record:
// a sequence counter claims a slot, an atomic pointer store publishes
// it. Readers snapshot the slot array without stopping writers; an event
// being overwritten mid-snapshot yields either the old or the new record,
// both internally consistent.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the execution backends.
const (
	EventDispatch   = "dispatch"
	EventRetry      = "retry"
	EventRequeue    = "requeue"
	EventQuarantine = "quarantine"
	EventRevive     = "revive"
	EventCacheHit   = "cache_hit"
	EventCacheMiss  = "cache_miss"
	EventSlowCell   = "slow_cell"
	EventFallback   = "fallback"
	EventError      = "error"
)

// Event kinds recorded by the persistent result store (internal/store).
const (
	// EventStoreHitDisk marks a disk-tier lookup that skipped a
	// simulation.
	EventStoreHitDisk = "store_hit_disk"
	// EventStoreFill marks a result written into the store.
	EventStoreFill = "store_fill"
	// EventStoreCompact marks a completed compaction pass.
	EventStoreCompact = "store_compact"
)

// Event is one flight-recorder record.
type Event struct {
	// Seq is the process-wide event number (1-based, assigned by Add).
	Seq uint64 `json:"seq"`
	// At is the wall-clock timestamp (stamped by Add when zero).
	At time.Time `json:"at"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Worker is the worker address involved ("local" for the in-process
	// backend, "" when not applicable).
	Worker string `json:"worker,omitempty"`
	// Cell names the evaluation cell ("workload/config").
	Cell string `json:"cell,omitempty"`
	// Trace is the hex TraceID joining the event to a stitched trace.
	Trace string `json:"trace,omitempty"`
	// Detail carries the human-readable cause (error text, threshold).
	Detail string `json:"detail,omitempty"`
	// Seconds is the elapsed time that triggered the event, for timed
	// kinds (slow_cell, dispatch outcomes).
	Seconds float64 `json:"seconds,omitempty"`
}

// Ring is the fixed-size lock-free event buffer. The zero value is not
// usable; call NewRing.
type Ring struct {
	slots []atomic.Pointer[Event]
	seq   atomic.Uint64
}

// DefaultRingSize bounds a Ring constructed with size <= 0.
const DefaultRingSize = 4096

// NewRing returns a recorder keeping the last size events
// (size <= 0 = DefaultRingSize).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{slots: make([]atomic.Pointer[Event], size)}
}

// Add records one event, stamping Seq (and At, when zero). It is safe
// from any goroutine and never blocks. A nil ring drops the event.
func (r *Ring) Add(e Event) {
	if r == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	n := r.seq.Add(1)
	e.Seq = n
	r.slots[(n-1)%uint64(len(r.slots))].Store(&e)
}

// Total counts events ever recorded (recorded minus retained = evicted).
func (r *Ring) Total() uint64 { return r.seq.Load() }

// Snapshot returns up to n of the most recent events in ascending Seq
// order (n <= 0 = everything retained).
func (r *Ring) Snapshot(n int) []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// WriteJSON dumps the last n events (n <= 0 = all retained) as indented
// JSON — the /debug/events payload and the CLI post-mortem artifact.
func (r *Ring) WriteJSON(w io.Writer, n int) error {
	events := r.Snapshot(n)
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}

// Dump writes every retained event to w under a one-line header, so a
// failed or interrupted run leaves a post-mortem trail. A nil or empty
// ring writes nothing; a failed write is reported on w.
func (r *Ring) Dump(w io.Writer) {
	if r == nil || r.Total() == 0 {
		return
	}
	fmt.Fprintf(w, "flight recorder (%d events recorded, oldest first):\n", r.Total())
	if err := r.WriteJSON(w, 0); err != nil {
		fmt.Fprintln(w, "flight recorder dump:", err)
	}
	fmt.Fprintln(w)
}
