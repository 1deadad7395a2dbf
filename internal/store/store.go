// Package store is the persistence layer behind warm restarts: a
// durable, crash-safe, content-addressed result store. Every simulated
// cell is expensive (a full cycle-level run) yet perfectly reusable —
// results are content-addressed by their sched.Key — so the store keeps
// completed results across processes instead of re-deriving them
// (DESIGN.md §15).
//
// Disk is the one implementation: append-only segment files with
// length-prefixed, sha256-checksummed records and an in-memory index
// rebuilt on open. Torn or truncated tails (a crash mid-append) are
// tolerated and logged, segments rotate atomically at a size threshold,
// and compaction drops superseded and over-quota entries.
//
// The store sits behind the scheduler's LRU (finished cells' payloads,
// in-flight coalescing), which stays the hot memory front: internal/exec
// consults the store only when that cache misses, a store hit skips the
// simulation entirely, and the decoded result, with the bytes it was read
// from, is promoted back into the scheduler cache.
//
// Layering: this package may import internal/obs and nothing else
// module-internal (enforced by elflint's layering check); values are
// opaque bytes, so the store never learns what an eval.Result is.
package store

// Store is a content-addressed result store. Keys are sched.Key content
// addresses (hex strings); values are opaque bytes (the serving layer
// stores JSON-encoded results). Implementations must be safe for
// concurrent use.
type Store interface {
	// Get returns the stored value for key. A miss is (nil, false, nil);
	// an error reports an I/O or integrity failure, which callers should
	// treat as a miss (the store degrades, it never blocks progress).
	Get(key string) ([]byte, bool, error)
	// Put stores value under key, superseding any previous value.
	Put(key string, value []byte) error
	// Stats snapshots per-tier counters.
	Stats() []TierStats
	// Compact reclaims space: superseded records are dropped and, when a
	// quota is configured, the oldest live entries are evicted until the
	// store fits. A no-op for tiers with nothing to reclaim.
	Compact() error
	// Close flushes and releases the store. A closed store fails Get/Put.
	Close() error
}

// TierStats is one tier's point-in-time counter snapshot.
type TierStats struct {
	// Tier names the tier ("disk").
	Tier string `json:"tier"`
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts fills (values written). On a warm restart a grid that
	// re-simulates nothing performs zero Puts.
	Puts uint64 `json:"puts"`
	// Entries and Bytes size the live set (Bytes counts record bytes).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Compactions counts completed compaction passes.
	Compactions uint64 `json:"compactions"`
	// Segments counts live segment files.
	Segments int `json:"segments,omitempty"`
	// Errors counts failed Gets/Puts (I/O trouble, bad checksums).
	Errors uint64 `json:"errors,omitempty"`
}

// shortKey truncates a content address for event detail fields: the
// first 12 hex digits identify a key for a human without drowning the
// flight recorder.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
