package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"elfetch/internal/btb"
	"elfetch/internal/core"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/program"
	"elfetch/internal/uop"
	"elfetch/internal/workload"
	"elfetch/internal/xrand"
)

// simSpec is a closed-loop simulation workload: one goroutine runs every
// (program, configuration) cell straight through pipeline.New and
// Machine.RunContext, pass after pass.
type simSpec struct {
	profiles []string
	configs  []pipeline.Config
	tail     float64 // percentile reported as cell_ms_tail
}

func simFrontend() simSpec {
	base := pipeline.DefaultConfig()
	return simSpec{
		profiles: []string{"server1_subtest_1", "server1_subtest_2", "602.gcc_s", "641.leela_s", "401.bzip2"},
		configs:  []pipeline.Config{base, base.WithVariant(core.UELF), base.WithVariant(core.LELF)},
		tail:     95,
	}
}

func simMemory() simSpec {
	base := pipeline.DefaultConfig()
	return simSpec{
		profiles: []string{"605.mcf_s", "server2_subtest_3", "433.milc", "437.leslie3d"},
		configs:  []pipeline.Config{base, base.NoDCF()},
		tail:     90,
	}
}

// programSeed derives a program's generator seed from the run seed. Seed
// 0 reproduces the registry's programs (variant 0) so results can be
// read against the goldens; any other seed gives programs no one has
// tuned against.
func programSeed(e *workload.Entry, seed uint64, variant int) uint64 {
	if seed == 0 && variant == 0 {
		return e.Seed
	}
	return xrand.Mix(e.Seed, xrand.Mix(seed, uint64(variant)))
}

// simCell is one measured cell's outcome.
type simCell struct {
	stats pipeline.Stats
	btb   btb.Stats
	l1i   [2]uint64 // accesses, misses
	l1d   [2]uint64
	mshrQ uint64
	elf   [2]uint64 // coupled periods, coupled instructions
	flush uint64    // memory-order flushes
}

// simTotals aggregates one pass's cells into the modelled-component
// counters behind the btb.*, front.*, bpred.*, cache.*, elf.* and
// backend.* metrics.
type simTotals struct{ c simCell }

func (t *simTotals) add(c simCell) {
	s, d := &t.c.stats, &c.stats
	s.Cycles += d.Cycles
	s.Committed += d.Committed
	s.CondMispredict += d.CondMispredict
	s.IndMispredict += d.IndMispredict
	s.DecodeResteers += d.DecodeResteers
	s.TakenBubbles += d.TakenBubbles
	s.FetchedUops += d.FetchedUops
	s.WrongPathFetched += d.WrongPathFetched
	s.CoupledFetched += d.CoupledFetched
	s.PrefetchIssued += d.PrefetchIssued
	s.CycFAQEmpty += d.CycFAQEmpty
	s.CycFetchBusy += d.CycFetchBusy
	s.WatchdogRecoveries += d.WatchdogRecoveries
	t.c.btb.Lookups += c.btb.Lookups
	for l := range c.btb.Hits {
		t.c.btb.Hits[l] += c.btb.Hits[l]
	}
	for i := range c.l1i {
		t.c.l1i[i] += c.l1i[i]
		t.c.l1d[i] += c.l1d[i]
		t.c.elf[i] += c.elf[i]
	}
	t.c.mshrQ += c.mshrQ
	t.c.flush += c.flush
}

func (t *simTotals) report(r *run) {
	c := &t.c
	st := &c.stats
	ki := float64(st.Committed) / 1000
	n := int(st.Committed)
	for l := btb.L0; l <= btb.L2; l++ {
		r.set(fmt.Sprintf("btb.l%d_hit", l), c.btb.HitRate(l), int(c.btb.Lookups))
	}
	r.set("front.resteers_pki", ratio(float64(st.DecodeResteers), ki), n)
	r.set("front.taken_bubbles_pki", ratio(float64(st.TakenBubbles), ki), n)
	r.set("front.wrong_path_frac", ratio(float64(st.WrongPathFetched), float64(st.FetchedUops)), int(st.FetchedUops))
	r.set("front.faq_empty_frac", ratio(float64(st.CycFAQEmpty), float64(st.Cycles)), int(st.Cycles))
	r.set("front.fetch_busy_frac", ratio(float64(st.CycFetchBusy), float64(st.Cycles)), int(st.Cycles))
	r.set("bpred.cond_mpki", ratio(float64(st.CondMispredict), ki), n)
	r.set("bpred.ind_mpki", ratio(float64(st.IndMispredict), ki), n)
	r.set("cache.l1i_miss", ratio(float64(c.l1i[1]), float64(c.l1i[0])), int(c.l1i[0]))
	r.set("cache.l1d_miss", ratio(float64(c.l1d[1]), float64(c.l1d[0])), int(c.l1d[0]))
	r.set("cache.iprefetch_pki", ratio(float64(st.PrefetchIssued), ki), n)
	r.set("cache.mshr_queued_pki", ratio(float64(c.mshrQ), ki), n)
	r.set("elf.coupled_frac", ratio(float64(st.CoupledFetched), float64(st.FetchedUops)), int(st.FetchedUops))
	r.set("elf.avg_coupled_insts", ratio(float64(c.elf[1]), float64(c.elf[0])), int(c.elf[0]))
	r.set("elf.watchdog_pmi", ratio(float64(st.WatchdogRecoveries), ki/1000), n)
	r.set("backend.ipc", st.IPC(), int(st.Cycles))
	r.set("backend.memorder_flush_pki", ratio(float64(c.flush), ki), n)
}

// simTimes collects the pipeline layer's per-cell timings.
type simTimes struct {
	newS, warmS, measS []float64
	cycles             uint64
	allocs, bytes      uint64
	allocCycles        uint64 // cycles measured under the allocation counters
}

func runSim(r *run, spec simSpec) error {
	type cellDef struct {
		name string
		prog *program.Program
		cfg  pipeline.Config
	}
	var (
		cells []cellDef
		gens  []float64
	)
	err := r.repeatSetup(func(int) (float64, error) {
		// Collect the previous repetition's programs first, so peak
		// memory does not depend on when the collector last ran.
		cells = cells[:0]
		runtime.GC()
		t0 := time.Now()
		for _, name := range spec.profiles {
			e, err := workload.Lookup(name)
			if err != nil {
				return 0, err
			}
			for v := 0; v < r.sz.simVariants; v++ {
				var prog *program.Program
				gens = append(gens, timed(func() { prog = workload.MustGenerate(e.Profile, programSeed(e, r.opt.seed, v)) }))
				for _, cfg := range spec.configs {
					cells = append(cells, cellDef{fmt.Sprintf("%s#%d/%s", name, v, cfg.Name()), prog, cfg})
				}
			}
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	r.setPct("workload.gen_ms", scale(gens, 1e3), 50)
	runtime.GC()

	var (
		first    []simCell
		totals   simTotals
		lat      []float64 // per-cell seconds
		minsts   []float64 // per pass
		cellRate []float64 // per pass
		tm       simTimes
	)
	err = r.units(func(i int) error {
		var committed uint64
		var measure float64
		t0 := time.Now()
		for ci, cd := range cells {
			var c simCell
			cellT, err := r.item(i, ci, "cell", func(root *obs.Span) error {
				if root != nil {
					root.SetAttr("cell", cd.name)
				}
				var err error
				c, err = runSimCell(r, root, cd.cfg, cd.prog, &tm)
				return err
			})
			r.op(err, "cell "+cd.name)
			if err != nil {
				continue
			}
			lat = append(lat, cellT)
			committed += c.stats.Committed
			measure += tm.measS[len(tm.measS)-1]
			if i == 0 {
				first = append(first, c)
				totals.add(c)
				continue
			}
			r.check(ci < len(first) && first[ci].stats == c.stats,
				"pass %d cell %s: stats differ from pass 1", i+1, cd.name)
		}
		wall := time.Since(t0).Seconds()
		minsts = append(minsts, ratio(float64(committed), measure)/1e6)
		cellRate = append(cellRate, float64(len(cells))/wall)
		return nil
	})
	if err != nil {
		return err
	}
	r.setPct("sim_minsts_per_s", minsts, 50)
	r.setPct("cells_per_s", cellRate, 50)
	r.setPct("cell_ms_p50", scale(lat, 1e3), 50)
	r.setPct("cell_ms_tail", scale(lat, 1e3), spec.tail)
	r.setPct("pipeline.new_ms", scale(tm.newS, 1e3), 50)
	r.setPct("pipeline.warmup_ms", scale(tm.warmS, 1e3), 50)
	r.setPct("pipeline.measure_ms", scale(tm.measS, 1e3), 50)
	r.set("pipeline.host_ns_per_cycle", ratio(sum(tm.measS)*1e9, float64(tm.cycles)), len(tm.measS))
	r.set("pipeline.allocs_per_kcycle", ratio(float64(tm.allocs)*1000, float64(tm.allocCycles)), int(tm.allocCycles))
	r.set("pipeline.bytes_per_kcycle", ratio(float64(tm.bytes)*1000, float64(tm.allocCycles)), int(tm.allocCycles))
	totals.report(r)
	if err := checkGolden(r, spec); err != nil {
		return err
	}
	r.set("rss_peak_mb", peakRSSMB(), 1)
	return r.finishTrace()
}

// runSimCell builds one machine, warms it, measures it, and returns the
// cell's counters. In a traced cell (parent != nil) the measured run is
// also bracketed by the allocation counters.
func runSimCell(r *run, parent *obs.Span, cfg pipeline.Config, prog *program.Program, tm *simTimes) (simCell, error) {
	var c simCell
	traced := parent != nil
	t0 := time.Now()
	sp := r.child(parent, "pipeline.new")
	m, err := pipeline.New(cfg, prog)
	finish(sp)
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	sp = r.child(parent, "pipeline.warmup")
	_, err = m.RunContext(r.ctx, r.sz.simWarmup)
	finish(sp)
	if err != nil {
		return c, err
	}
	m.ResetStats()
	h := m.Hierarchy()
	mshr0 := h.DMSHRQueued
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t2 := time.Now()
	sp = r.child(parent, "pipeline.measure")
	st, err := m.RunContext(r.ctx, r.sz.simMeasure)
	finish(sp)
	t3 := time.Now()
	if err != nil {
		return c, err
	}
	if traced {
		runtime.ReadMemStats(&ms1)
		tm.allocs += ms1.Mallocs - ms0.Mallocs
		tm.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		tm.allocCycles += st.Cycles
	}
	tm.newS = append(tm.newS, t1.Sub(t0).Seconds())
	tm.warmS = append(tm.warmS, t2.Sub(t1).Seconds())
	tm.measS = append(tm.measS, t3.Sub(t2).Seconds())
	tm.cycles += st.Cycles
	c.stats = *st
	c.btb = *m.BTBStats()
	c.l1i = [2]uint64{h.L1I.Accesses, h.L1I.Misses}
	c.l1d = [2]uint64{h.L1D.Accesses, h.L1D.Misses}
	c.mshrQ = h.DMSHRQueued - mshr0
	c.elf = [2]uint64{m.ELF().Periods, m.ELF().CoupledInstsTotal}
	c.flush = st.Flushes[uop.FlushMemOrder]
	return c, nil
}

// goldenWarmup and goldenMeasure are the run lengths
// internal/eval/testdata/golden_stats.json was recorded at.
const (
	goldenWarmup  = 5_000
	goldenMeasure = 12_000
)

// checkGolden re-runs each of the workload's (profile, configuration)
// cells on the registry program at the golden lengths and compares the
// full Stats with the recorded fixture. It runs on every seed: the
// fixture pins the simulator, whatever programs the seed measured.
func checkGolden(r *run, spec simSpec) error {
	b, err := os.ReadFile(r.opt.golden)
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	var cells []struct {
		Workload string          `json:"workload"`
		Config   string          `json:"config"`
		Stats    *pipeline.Stats `json:"stats"`
	}
	if err := json.Unmarshal(b, &cells); err != nil {
		return fmt.Errorf("golden fixture %s: %w", r.opt.golden, err)
	}
	want := map[string]*pipeline.Stats{}
	for _, c := range cells {
		want[c.Workload+"/"+c.Config] = c.Stats
	}
	for _, name := range spec.profiles {
		e, err := workload.Lookup(name)
		if err != nil {
			return err
		}
		for _, cfg := range spec.configs {
			key := name + "/" + cfg.Name()
			st, err := goldenRun(r, cfg, e.Program())
			if err != nil {
				r.op(err, "golden "+key)
				continue
			}
			w := want[key]
			r.check(w != nil && *w == *st, "golden %s: stats differ from the fixture", key)
		}
	}
	return nil
}

func goldenRun(r *run, cfg pipeline.Config, prog *program.Program) (*pipeline.Stats, error) {
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if _, err := m.RunContext(r.ctx, goldenWarmup); err != nil {
		return nil, err
	}
	m.ResetStats()
	return m.RunContext(r.ctx, goldenMeasure)
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
