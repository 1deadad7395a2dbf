package bpred

import "elfetch/internal/isa"

// RAS is a return address stack (Table II: 32 entries, 0.25KB). Both the
// decoupled fetcher and — in RET-ELF / U-ELF — the coupled fetcher own one.
//
// The stack is a circular buffer; overflow silently wraps (oldest entries
// are lost), underflow predicts 0. Speculative operation is repaired with
// value-type checkpoints capturing the top-of-stack pointer and the top
// entry (the standard low-cost RAS repair: enough to undo any single-path
// sequence of pushes/pops between checkpoint and restore in the common
// case; deep wrap-around corruption behaves like a real, imperfect RAS).
type RAS struct {
	entries []isa.Addr
	top     int // index of the current top (valid when depth > 0)
	depth   int // logical depth, saturates at len(entries)
}

// RASCheckpoint restores the stack to a prior speculative point.
type RASCheckpoint struct {
	top, depth int
	topValue   isa.Addr
}

// NewRAS returns a stack with n entries.
func NewRAS(n int) *RAS {
	mustPositive(n, "RAS")
	return &RAS{entries: make([]isa.Addr, n), top: n - 1}
}

// Checkpoint captures the repair state.
func (r *RAS) Checkpoint() RASCheckpoint {
	return RASCheckpoint{top: r.top, depth: r.depth, topValue: r.entries[r.top]}
}

// Restore rewinds to a checkpoint.
func (r *RAS) Restore(c RASCheckpoint) {
	r.top, r.depth = c.top, c.depth
	r.entries[r.top] = c.topValue
}

// Push records a return address on a call.
func (r *RAS) Push(ra isa.Addr) {
	r.top = (r.top + 1) % len(r.entries)
	r.entries[r.top] = ra
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts and consumes the top return address. ok is false on
// underflow.
func (r *RAS) Pop() (ra isa.Addr, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	ra = r.entries[r.top]
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return ra, true
}

// Depth returns the logical depth.
func (r *RAS) Depth() int { return r.depth }

// CopyFrom overwrites this stack with the full contents of src (same
// capacity required). Used to repair a speculative RAS from the
// architectural (retire-time) one when no per-branch checkpoint exists —
// e.g. a flush triggered by a coupled-fetched instruction whose checkpoint
// was never bound (Section IV-D1).
func (r *RAS) CopyFrom(src *RAS) {
	if len(r.entries) != len(src.entries) {
		//lint:allow panic repair invariant: speculative and architectural RAS share one configured depth
		panic("bpred: RAS CopyFrom size mismatch")
	}
	copy(r.entries, src.entries)
	r.top, r.depth = src.top, src.depth
}

// StorageBits approximates the hardware budget (48-bit addresses).
func (r *RAS) StorageBits() int { return len(r.entries) * 48 }
