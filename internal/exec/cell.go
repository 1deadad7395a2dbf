package exec

import (
	"context"
	"encoding/json"

	"elfetch/internal/eval"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// cellKey content-addresses one cell. It is the key the scheduler caches
// the cell under and the key the persistent store keeps its result under,
// so every path that runs a cell — Local, Fleet and elfd's POST /v1/cells —
// shares one address space.
func cellKey(c eval.Cell) string { return sched.Key("cell", c) }

// EncodedResult is a finished cell's payload: its Result and the JSON
// bytes that Result was encoded into once, by CellTask after simulating,
// or was decoded from by decodeResult (a stored record or a worker's 200
// reply). MarshalJSON returns those bytes, so the scheduler cache sizes
// the entry by them, the store and the Fleet keep them, and elfd's
// POST /v1/cells writes them verbatim.
type EncodedResult struct {
	Result  eval.Result
	encoded []byte
}

// MarshalJSON returns the bytes the Result was encoded into or read from.
func (e EncodedResult) MarshalJSON() ([]byte, error) { return e.encoded, nil }

// decodeResult is the one place a cell's stored or received bytes are
// decoded; the payload keeps those bytes.
func decodeResult(b []byte) (EncodedResult, error) {
	var r eval.Result
	err := json.Unmarshal(b, &r)
	return EncodedResult{Result: r, encoded: b}, err
}

// loadResult reads the stored result for key. A miss, a store error and a
// value that fails to decode (format drift) all count as a miss: the
// store never blocks progress.
func loadResult(st store.Store, key string) (EncodedResult, bool) {
	b, ok, _ := st.Get(key)
	e, err := decodeResult(b)
	return e, ok && err == nil
}

// CellTask returns the scheduler job that runs c on l's store and probe:
// its label "cell WORKLOAD/CONFIG", its key cellKey(c) and the
// store-behind-cache task, whose payload is an EncodedResult. Submitted to
// l's scheduler, a cached cell is answered without running anything and
// identical cells coalesce in flight. The task itself consults the store
// (when l has one) before simulating — a stored result decodes without
// simulating and the scheduler still promotes it into its cache — and
// puts a fresh simulation's bytes back; a failed Put is dropped, like a
// miss. The probe is attached to the machine after warmup; ran, when
// non-nil, is called once per fresh simulation (never for a store hit).
func (l *Local) CellTask(c eval.Cell, ran func()) (label, key string, task sched.Task) {
	key = cellKey(c)
	return "cell " + c.Workload + "/" + c.Config.Name(), key, func(ctx context.Context) (any, error) {
		if l.store != nil {
			if e, ok := loadResult(l.store, key); ok {
				return e, nil
			}
		}
		r, err := eval.RunCell(ctx, c, l.probe)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(r) // the one place a cell's Result is encoded
		if err != nil {
			return nil, err
		}
		if l.store != nil {
			_ = l.store.Put(key, b)
		}
		if ran != nil {
			ran()
		}
		return EncodedResult{Result: r, encoded: b}, nil
	}
}
