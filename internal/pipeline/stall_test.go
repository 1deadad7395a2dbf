package pipeline_test

import (
	"context"
	"slices"
	"testing"

	"elfetch/internal/btb"
	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
	"elfetch/internal/program"
	"elfetch/internal/workload"
)

// RunContext may move the clock over window stalls (stallWake); stepping
// Cycle by hand never does. These tests hold the two to the same end
// state: the skip must be invisible in everything a run reports.

// step is the reference: RunContext's loop, one Cycle at a time.
func step(m *pipeline.Machine, n uint64) {
	target := m.Stats.Committed + n
	limit := m.Now() + n*100 + 1_000_000
	for m.Stats.Committed < target && m.Now() < limit {
		m.Cycle()
	}
}

// snapshot is what a run reports: the Stats, the clock and every
// component's counters.
type snapshot struct {
	Stats        pipeline.Stats
	Now          uint64
	BTB          btb.Stats
	Caches       [5][2]uint64 // L0I, L1I, L1D, L2, L3: accesses, misses
	MSHRQueued   uint64
	DPrefetches  uint64
	Backend      [5]uint64 // committed, forwarded, wrong-path, violations, deferred
	Window       [2]int    // ROB and issue-queue occupancy
	ELF          [6]uint64 // periods, coupled insts, switches, pops, overshoots, mode
	PeriodHist   [12]uint64
	Divergences  [4]uint64
	FAQHighWater int
}

func snap(m *pipeline.Machine) snapshot {
	s := snapshot{Stats: m.Stats, Now: m.Now(), BTB: *m.BTBStats(), FAQHighWater: m.FAQHighWater()}
	h := m.Hierarchy()
	for i, c := range []struct{ a, m uint64 }{
		{h.L0I.Accesses, h.L0I.Misses}, {h.L1I.Accesses, h.L1I.Misses}, {h.L1D.Accesses, h.L1D.Misses},
		{h.L2.Accesses, h.L2.Misses}, {h.L3.Accesses, h.L3.Misses},
	} {
		s.Caches[i] = [2]uint64{c.a, c.m}
	}
	s.MSHRQueued = h.DMSHRQueued
	if h.DPrefetch != nil {
		s.DPrefetches = h.DPrefetch.Issued
	}
	b := m.Backend()
	s.Backend = [5]uint64{b.Committed, b.ForwardedLoads, b.WrongPathExec, b.LoadViolations, b.DeferredFlushes}
	s.Window = [2]int{b.Occupancy(), b.IQCount()}
	e := m.ELF()
	s.ELF = [6]uint64{e.Periods, e.CoupledInstsTotal, e.ResyncSwitches, e.ResyncPops, e.OvershootSquashes, uint64(e.Mode())}
	s.PeriodHist, s.Divergences = e.PeriodHist, e.Divergences
	return s
}

// recorder is a probe Observer that keeps every sample in order.
type recorder struct{ v []float64 }

func (r *recorder) Observe(v float64) { r.v = append(r.v, v) }

func recordingProbe() *pipeline.Probe {
	return &pipeline.Probe{FlushRecovery: &recorder{}, FAQOccupancy: &recorder{}, CoupledResidency: &recorder{}, ResyncDrain: &recorder{}}
}

func probeSamples(p *pipeline.Probe) [4][]float64 {
	return [4][]float64{p.FlushRecovery.(*recorder).v, p.FAQOccupancy.(*recorder).v,
		p.CoupledResidency.(*recorder).v, p.ResyncDrain.(*recorder).v}
}

// extras selects what a run attaches after warmup.
type extras struct{ probe, tracer bool }

// outcome is one run's snapshot plus what it attached.
type outcome struct {
	s      snapshot
	probe  [4][]float64
	events []pipeline.TraceEvent
}

// measure runs warm instructions, resets the counters, attaches the
// extras and runs meas more, through RunContext or by stepping.
func measure(t testing.TB, cfg pipeline.Config, prog *program.Program, warm, meas uint64, x extras, stepped bool) outcome {
	m := pipeline.MustNew(cfg, prog)
	run := func(n uint64) {
		if stepped {
			step(m, n)
			return
		}
		if _, err := m.RunContext(context.Background(), n); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
	}
	run(warm)
	m.ResetStats()
	var p *pipeline.Probe
	var tr *pipeline.Tracer
	if x.probe {
		p = recordingProbe()
		m.AttachProbe(p)
	}
	if x.tracer {
		tr = pipeline.NewTracer(1 << 12)
		m.AttachTracer(tr)
	}
	run(meas)
	o := outcome{s: snap(m)}
	if p != nil {
		o.probe = probeSamples(p)
	}
	if tr != nil {
		o.events = tr.Events()
	}
	return o
}

// checkRunMatchesStepping fails unless RunContext and stepping end in the
// same state.
func checkRunMatchesStepping(t testing.TB, cfg pipeline.Config, prog *program.Program, warm, meas uint64, x extras) {
	t.Helper()
	got := measure(t, cfg, prog, warm, meas, x, false)
	want := measure(t, cfg, prog, warm, meas, x, true)
	if got.s != want.s {
		t.Fatalf("%s at %d/%d: RunContext and stepping disagree\n run  %+v\n step %+v", cfg.Name(), warm, meas, got.s, want.s)
	}
	for i := range got.probe {
		if !slices.Equal(got.probe[i], want.probe[i]) {
			t.Fatalf("%s at %d/%d: probe distribution %d differs: run %d samples, step %d",
				cfg.Name(), warm, meas, i, len(got.probe[i]), len(want.probe[i]))
		}
	}
	if !slices.Equal(got.events, want.events) {
		t.Fatalf("%s at %d/%d: traces differ (%d and %d events)", cfg.Name(), warm, meas, len(got.events), len(want.events))
	}
}

// TestRunMatchesStepping is the reference for the stall skip: every
// registry workload under the four golden configs at the golden lengths
// (5k warmup, 12k measured) and at 20k/80k, and every other distinct cell
// of the experiment registry at the golden lengths, must end RunContext in
// the state stepping Cycle reaches. One probed and one traced cell must
// also give the same samples and the same trace.
func TestRunMatchesStepping(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("steps 537 cells cycle by cycle; the race build adds nothing to a single-goroutine replay")
	}
	base := pipeline.DefaultConfig()
	configs := []pipeline.Config{base, base.NoDCF(), base.WithVariant(core.UELF), base.WithVariant(core.LELF)}
	type cell struct {
		workload string
		cfg      pipeline.Config
	}
	covered := map[cell]bool{}
	for _, e := range workload.All() {
		for _, cfg := range configs {
			covered[cell{e.Name, cfg}] = true
		}
	}
	var others []cell
	for _, name := range eval.ExperimentNames() {
		x, err := eval.LookupExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range x.Cells {
			if k := (cell{c.Workload, c.Config}); !covered[k] {
				covered[k] = true
				others = append(others, k)
			}
		}
	}
	for _, e := range workload.All() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range configs {
				checkRunMatchesStepping(t, cfg, e.Program(), 5_000, 12_000, extras{})
				checkRunMatchesStepping(t, cfg, e.Program(), 20_000, 80_000, extras{})
			}
		})
	}
	t.Run("experiments", func(t *testing.T) {
		t.Parallel()
		for _, c := range others {
			e, err := workload.Lookup(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			checkRunMatchesStepping(t, c.cfg, e.Program(), 5_000, 12_000, extras{})
		}
	})
	// The memory-bound proxy stalls most, so it crosses the most FAQ
	// samples, watchdog checks and traced events with a skip.
	t.Run("probe-and-tracer", func(t *testing.T) {
		t.Parallel()
		e, err := workload.Lookup("605.mcf_s")
		if err != nil {
			t.Fatal(err)
		}
		checkRunMatchesStepping(t, base.WithVariant(core.UELF), e.Program(), 20_000, 80_000, extras{probe: true})
		checkRunMatchesStepping(t, base, e.Program(), 20_000, 30_000, extras{tracer: true})
	})
}

// fuzzKnobs are the variants and knobs FuzzRunMatchesStepping picks from.
var fuzzKnobs = []struct {
	name string
	set  func(*pipeline.Config)
}{
	{"DCF", func(*pipeline.Config) {}},
	{"NoDCF", func(c *pipeline.Config) { *c = c.NoDCF() }},
	{"L-ELF", func(c *pipeline.Config) { *c = c.WithVariant(core.LELF) }},
	{"U-ELF", func(c *pipeline.Config) { *c = c.WithVariant(core.UELF) }},
	{"RET-ELF", func(c *pipeline.Config) { *c = c.WithVariant(core.RETELF) }},
	{"IND-ELF", func(c *pipeline.Config) { *c = c.WithVariant(core.INDELF) }},
	{"COND-ELF", func(c *pipeline.Config) { *c = c.WithVariant(core.CONDELF) }},
	{"U-ELF Boomerang", func(c *pipeline.Config) { *c = c.WithVariant(core.UELF); c.Boomerang = true }},
	{"U-ELF ROB-head wait", func(c *pipeline.Config) { *c = c.WithVariant(core.UELF); c.Ckpt = pipeline.CkptROBHeadWait }},
	{"L-ELF ROB-head wait", func(c *pipeline.Config) { *c = c.WithVariant(core.LELF); c.Ckpt = pipeline.CkptROBHeadWait }},
	{"DCF no FAQ prefetch", func(c *pipeline.Config) { c.FAQPrefetch = false }},
}

// FuzzRunMatchesStepping widens the reference test: a registry profile
// generated from any seed, any variant or knob above, a window small
// enough that the issue queue and the load/store queue fill before the
// ROB does, and any warmup and measured length. The knob byte's low
// nibble picks the knob and, when its bit 4 is clear, a recording probe
// is attached, so the FAQ sampling clock meets skips.
func FuzzRunMatchesStepping(f *testing.F) {
	// Seeds: the memory-bound proxies under each front end with a
	// load/store queue (and then an issue queue) smaller than the ROB, a
	// front-end workload with FAQ prefetching, and the elastic variants
	// on a flush-heavy program.
	f.Add(uint8(0), uint64(1), uint8(0), uint8(240), uint8(124), uint8(14), uint16(3000), uint16(9000))
	f.Add(uint8(0), uint64(2), uint8(1), uint8(240), uint8(20), uint8(40), uint16(3000), uint16(9000))
	f.Add(uint8(1), uint64(3), uint8(3), uint8(100), uint8(30), uint8(6), uint16(2000), uint16(7000))
	f.Add(uint8(2), uint64(4), uint8(2), uint8(60), uint8(60), uint8(46), uint16(1000), uint16(6000))
	f.Add(uint8(3), uint64(5), uint8(8), uint8(200), uint8(90), uint8(10), uint16(4000), uint16(8000))
	f.Add(uint8(4), uint64(6), uint8(10), uint8(140), uint8(45), uint8(25), uint16(2500), uint16(5000))
	f.Add(uint8(5), uint64(7), uint8(7), uint8(80), uint8(12), uint8(30), uint16(1500), uint16(6000))
	f.Add(uint8(0), uint64(8), uint8(9), uint8(48), uint8(48), uint8(47), uint16(500), uint16(4000))
	// Found by fuzzing: h264ref under L-ELF with a 59-entry ROB, where
	// an FAQ prefetch completes inside a stall and fetch then reads its
	// line (a skip past the completion loses one L0I access).
	f.Add(uint8(68), uint64(77), uint8(16|2), uint8(43), uint8(158), uint8(87), uint16(1000), uint16(5996))
	// Found by fuzzing: milc under IND-ELF with an 11-entry issue queue
	// meets its budget in a stall (a skip there adds a cycle).
	f.Add(uint8(173), uint64(1), uint8(16|5), uint8(92), uint8(71), uint8(16), uint16(2456), uint16(4862))
	f.Fuzz(func(t *testing.T, wl uint8, seed uint64, knob uint8, rob, iq, lsq uint8, warm, meas uint16) {
		e := fuzzWorkloads[int(wl)%len(fuzzWorkloads)]
		cfg := pipeline.DefaultConfig()
		k := fuzzKnobs[int(knob&15)%len(fuzzKnobs)]
		k.set(&cfg)
		cfg.Backend.ROB = 16 + int(rob)
		cfg.Backend.IQ = 4 + int(iq)%64
		cfg.Backend.LSQ = 2 + int(lsq)%48
		prog := fuzzProgram(t, e, seed)
		t.Logf("%s seed %d, %s, ROB %d IQ %d LSQ %d", e, seed, k.name, cfg.Backend.ROB, cfg.Backend.IQ, cfg.Backend.LSQ)
		checkRunMatchesStepping(t, cfg, prog, uint64(warm)%8192, 1+uint64(meas)%16384, extras{probe: knob&16 == 0})
	})
}

// fuzzWorkloads are the registry profiles the fuzz generates programs
// from: the memory-bound proxies first, then front-end and mixed ones.
var fuzzWorkloads = []string{"605.mcf_s", "server2_subtest_3", "433.milc", "641.leela_s", "401.bzip2", "464.h264ref", "602.gcc_s", "471.omnetpp", "server1_subtest_1"}

// fuzzProgram generates the named profile's program from seed; seed 0
// is the registry's own program.
func fuzzProgram(t *testing.T, name string, seed uint64) *program.Program {
	e, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if seed == 0 {
		return e.Program()
	}
	p, err := workload.Generate(e.Profile, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return p
}
