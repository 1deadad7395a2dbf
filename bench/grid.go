package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/store"
	"elfetch/internal/workload"
	"elfetch/internal/xrand"
)

// figureGrid is the Figure 6 grid in an order permuted by seed.
func figureGrid(seed uint64) ([]*workload.Entry, []pipeline.Config, error) {
	var entries []*workload.Entry
	for _, name := range workload.FigureSet() {
		e, err := workload.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
		entries = append(entries, e)
	}
	rng := xrand.New(xrand.Mix(seed, 0x9a1d))
	for i := len(entries) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		entries[i], entries[j] = entries[j], entries[i]
	}
	base := pipeline.DefaultConfig()
	return entries, []pipeline.Config{base, base.NoDCF()}, nil
}

// genFigurePrograms times generating the grid's registry programs (what
// a fresh process pays before its first cell) and returns per-program
// seconds.
func genFigurePrograms(entries []*workload.Entry) []float64 {
	var out []float64
	for _, e := range entries {
		out = append(out, timed(func() { workload.MustGenerate(e.Profile, e.Seed) }))
	}
	return out
}

// prefill writes n records that no grid cell asks for into a fresh store
// at dir, so replay and index size look like a long-lived store's.
func prefill(dir string, n int, seed uint64, entries []*workload.Entry, cfgs []pipeline.Config) error {
	st, err := store.Open(store.DiskConfig{Dir: dir})
	if err != nil {
		return err
	}
	rng := xrand.New(xrand.Mix(seed, 0xf111))
	for i := 0; i < n; i++ {
		e := entries[i%len(entries)]
		cfg := cfgs[i%len(cfgs)]
		c := eval.Cell{Workload: e.Name, Config: cfg, Warmup: 1, Measure: 1_000_000 + uint64(i)}
		res := eval.Result{Workload: e.Name, Suite: e.Suite, Config: cfg.Name(),
			IPC: 4 * rng.Float64(), MPKI: 20 * rng.Float64(), Committed: c.Measure, Cycles: c.Measure + uint64(rng.Intn(1<<20))}
		b, err := json.Marshal(res)
		if err != nil {
			st.Close()
			return err
		}
		if err := st.Put(sched.Key("cell", c), b); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// gridPass is one run of the grid through eval.MatrixResults on a fresh
// exec.Local backed by st.
type gridPass struct {
	res   eval.Results
	lat   []float64 // Local.Run seconds per cell
	keys  []float64 // sched.Key seconds per cell (traced)
	wall  float64
	sched sched.Stats
	tier  store.TierStats   // st's counters after the pass
	gets  []float64         // store Get seconds
	puts  []float64         // store Put seconds
	hits  map[string][]byte // traced: the values Get returned
}

func runGridPass(r *run, parent *obs.Span, st store.Store, entries []*workload.Entry, cfgs []pipeline.Config, p eval.Params, keys map[string]string) (gridPass, error) {
	keyed := &keySpans{m: map[string]*obs.Span{}}
	ts := &storeTimer{Store: st, r: r, keyed: keyed, hits: map[string][]byte{}}
	local := exec.NewLocal(exec.LocalConfig{Workers: 2, Store: ts})
	timer := &cellTimer{r: r, next: local, name: "exec.local.run", keys: keys, keyed: keyed}
	p.Parallel = 2
	p.Runner = timer
	ctx := r.ctx
	gs := r.child(parent, "grid")
	if gs != nil {
		ctx = obs.ContextWithSpan(ctx, gs)
	}
	t := time.Now()
	res, err := eval.MatrixResults(ctx, entries, cfgs, p)
	wall := time.Since(t).Seconds()
	finish(gs)
	var out gridPass
	out.sched = *local.Stats().Scheduler
	if cerr := local.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	out.res, out.wall = res, wall
	out.lat = timer.take()
	out.tier = st.Stats()[0]
	out.gets, out.puts, out.hits = ts.gets, ts.puts, ts.hits
	return out, nil
}

func runGrid(r *run) error {
	entries, cfgs, err := figureGrid(r.opt.seed)
	if err != nil {
		return err
	}
	n := len(entries) * len(cfgs)
	dir := filepath.Join(r.opt.dir, "store")
	var (
		st   *store.Disk
		gens []float64
	)
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	err = r.repeatSetup(func(int) (float64, error) {
		if st != nil {
			st.Close()
			st = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		gens = append(gens, genFigurePrograms(entries)...)
		if err := prefill(dir, r.sz.prefill, r.opt.seed, entries, cfgs); err != nil {
			return 0, err
		}
		var err error
		if st, err = store.Open(store.DiskConfig{Dir: dir}); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	r.setPct("workload.gen_ms", scale(gens, 1e3), 50)
	for _, e := range entries {
		e.Program() // fill the registry's program cache outside the timed rounds
	}

	// Each round's measure length gets its own seed-derived jitter, so the
	// cold pass never finds its cells in the store; 37 is odd, so the
	// first 512 rounds' lengths are distinct.
	jitter0 := xrand.Mix(r.opt.seed, 0x7e57) % 512
	var (
		coldLat, keys, decoded       []float64
		gets, puts, opens, slotIdle  []float64
		minsts, roundRate, restartHz []float64
		taskS, taskN, queueHW, waitS float64
	)
	err = r.units(func(i int) error {
		p := eval.Params{Warmup: r.sz.gridWarmup, Measure: r.sz.gridMeasure + (jitter0+uint64(i)*37)%512}
		cellKey, keySecs := cellKeys(entries, cfgs, p)
		keys = append(keys, keySecs...)
		t0 := time.Now()
		before := st.Stats()[0]
		var cold gridPass
		_, err := r.item(i, 0, "cold", func(root *obs.Span) error {
			var err error
			cold, err = runGridPass(r, root, st, entries, cfgs, p, cellKey)
			return err
		})
		r.op(err, "cold grid")
		if err != nil {
			return nil
		}
		r.check(len(cold.res) == n, "cold grid: %d of %d cells", len(cold.res), n)
		r.check(cold.tier.Puts-before.Puts == uint64(n) && cold.tier.Hits == before.Hits,
			"cold grid: %d puts, %d hits; want %d puts, 0 hits", cold.tier.Puts-before.Puts, cold.tier.Hits-before.Hits, n)
		want, err := json.Marshal(cold.res)
		if err != nil {
			return err
		}
		var insts float64
		for _, cr := range cold.res {
			insts += float64(cr.Cell.Warmup + cr.Result.Committed)
		}
		minsts = append(minsts, insts/cold.wall/1e6)
		coldLat = append(coldLat, cold.lat...)
		gets = append(gets, cold.gets...)
		puts = append(puts, cold.puts...)
		taskS += cold.sched.TaskSeconds
		taskN += float64(cold.sched.Completed)
		waitS += sum(cold.lat) - cold.sched.TaskSeconds
		queueHW = max(queueHW, float64(cold.sched.QueueHighWater))
		slotIdle = append(slotIdle, 1-sum(cold.lat)/(2*cold.wall))

		for k := 1; k <= r.sz.restarts; k++ {
			if err := st.Close(); err != nil {
				return err
			}
			st = nil
			var warm gridPass
			d, err := r.item(i, k, "restart", func(root *obs.Span) error {
				so := r.child(root, "store.open")
				t := time.Now()
				var err error
				st, err = store.Open(store.DiskConfig{Dir: dir})
				opens = append(opens, time.Since(t).Seconds())
				finish(so)
				if err != nil {
					return err
				}
				warm, err = runGridPass(r, root, st, entries, cfgs, p, cellKey)
				return err
			})
			if st == nil {
				return err
			}
			r.op(err, "warm restart")
			if err != nil {
				continue
			}
			restartHz = append(restartHz, float64(n)/d)
			got, err := json.Marshal(warm.res)
			if err != nil {
				return err
			}
			r.check(bytes.Equal(got, want), "restart %d: results differ from the cold pass", k)
			r.check(warm.tier.Hits == uint64(n) && warm.tier.Puts == 0,
				"restart %d: %d hits, %d puts; want %d hits, 0 puts", k, warm.tier.Hits, warm.tier.Puts, n)
			gets = append(gets, warm.gets...)
			// The cost of decoding what the restart read, timed apart
			// from the pass since Local decodes inside its task.
			for _, b := range warm.hits {
				var v eval.Result
				decoded = append(decoded, timed(func() { _ = json.Unmarshal(b, &v) }))
			}
			queueHW = max(queueHW, float64(warm.sched.QueueHighWater))
		}
		roundRate = append(roundRate, float64(n*(1+r.sz.restarts))/time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	r.setPct("sim_minsts_per_s", minsts, 50)
	r.setPct("cells_per_s", roundRate, 50)
	r.setPct("cell_ms_p50", scale(coldLat, 1e3), 50)
	r.setPct("cell_ms_tail", scale(coldLat, 1e3), 95)
	r.setPct("restart.cells_per_s", restartHz, 50)
	r.setPct("restart.decode_us_p50", scale(decoded, 1e6), 50)
	r.setPct("store.open_ms", scale(opens, 1e3), 50)
	r.setPct("store.get_us_p50", scale(gets, 1e6), 50)
	r.setPct("store.put_us_p50", scale(puts, 1e6), 50)
	r.setPct("store.put_us_tail", scale(puts, 1e6), 95)
	if ts := st.Stats()[0]; ts.Entries > 0 {
		r.set("store.bytes_per_cell", float64(ts.Bytes)/float64(ts.Entries), ts.Entries)
	}
	r.set("sched.task_ms_mean", ratio(taskS*1e3, taskN), int(taskN))
	r.set("sched.queue_wait_ms_mean", ratio(waitS*1e3, taskN), int(taskN))
	r.set("sched.queue_high_water", queueHW, len(roundRate))
	r.setPct("sched.key_us", scale(keys, 1e6), 50)
	r.set("eval.slot_idle_frac", mean(slotIdle), len(slotIdle))
	r.set("rss_peak_mb", peakRSSMB(), 1)
	return r.finishTrace()
}
