package exec

import (
	"context"
	"encoding/json"

	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// cellKey content-addresses one cell. It is the key the scheduler caches
// the cell under and the key the persistent store keeps its result under,
// so every path that runs a cell — Local, Fleet and elfd's POST /v1/cells —
// shares one address space.
func cellKey(c eval.Cell) string { return sched.Key("cell", c) }

// loadResult decodes the stored result for key. A miss, a store error and
// a value that fails to decode (format drift) all count as a miss: the
// store never blocks progress.
func loadResult(st store.Store, key string) (eval.Result, bool) {
	b, ok, _ := st.Get(key)
	if !ok {
		return eval.Result{}, false
	}
	var r eval.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return eval.Result{}, false
	}
	return r, true
}

// saveResult writes r under key as JSON for the next process. Failures are
// dropped, like a miss on the read side.
func saveResult(st store.Store, key string, r eval.Result) {
	if b, err := json.Marshal(r); err == nil {
		_ = st.Put(key, b)
	}
}

// CellTask returns the scheduler job that runs c: its label
// "cell WORKLOAD/CONFIG", its key cellKey(c) and the store-behind-cache
// task. Submitted to a sched.Scheduler, a cached cell is answered without
// running anything and identical cells coalesce in flight. The task itself
// consults st (when non-nil) before simulating — a stored result decodes
// without simulating and the scheduler still promotes it into its cache —
// and writes a fresh simulation back. probe is attached to the machine
// after warmup; ran, when non-nil, is called once per fresh simulation
// (never for a store hit).
func CellTask(c eval.Cell, st store.Store, probe *pipeline.Probe, ran func()) (label, key string, task sched.Task) {
	key = cellKey(c)
	return "cell " + c.Workload + "/" + c.Config.Name(), key, func(ctx context.Context) (any, error) {
		if st != nil {
			if r, ok := loadResult(st, key); ok {
				return r, nil
			}
		}
		r, err := eval.RunCell(ctx, c, probe)
		if err != nil {
			return nil, err
		}
		if st != nil {
			saveResult(st, key, r)
		}
		if ran != nil {
			ran()
		}
		return r, nil
	}
}
