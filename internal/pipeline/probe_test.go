package pipeline

import (
	"bytes"
	"encoding/json"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/program"
)

// collector is a minimal Observer: it records every sample.
type collector struct {
	samples []float64
}

func (c *collector) Observe(v float64) { c.samples = append(c.samples, v) }

// branchyProgram: a coin-flip branch keeps the mispredict (and therefore
// flush) rate high enough for probe distributions to fill quickly.
func branchyProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder(0x10000)
	f := b.Func("main")
	loop := f.Block("loop")
	loop.Nop(4)
	loop.CondTo(program.Bernoulli{P: 0.5, Salt: 7}, "other")
	loop.Nop(2)
	loop.JumpTo("loop")
	other := f.Block("other")
	other.Nop(2)
	other.JumpTo("loop")
	p, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProbeObservesDistributions(t *testing.T) {
	m := MustNew(DefaultConfig().WithVariant(core.UELF), branchyProgram(t))
	m.Run(5_000) // warm up unprobed: AttachProbe after warmup is the contract
	flush := &collector{}
	occ := &collector{}
	res := &collector{}
	drain := &collector{}
	m.AttachProbe(&Probe{
		FlushRecovery:    flush,
		FAQOccupancy:     occ,
		CoupledResidency: res,
		ResyncDrain:      drain,
	})
	st := m.Run(50_000)

	if st.Flushes[0]+st.Flushes[1]+st.Flushes[2]+st.Flushes[3] == 0 {
		t.Fatal("test program produced no flushes; probe cannot be exercised")
	}
	if len(flush.samples) == 0 {
		t.Error("no flush-recovery samples")
	}
	for _, v := range flush.samples {
		if v < 0 || v > 5_000_000 {
			t.Fatalf("implausible flush-recovery latency %v", v)
		}
	}
	if len(occ.samples) == 0 {
		t.Error("no FAQ occupancy samples")
	}
	cap := float64(DefaultConfig().FAQSize)
	for _, v := range occ.samples {
		if v < 0 || v > cap {
			t.Fatalf("FAQ occupancy %v out of [0, %v]", v, cap)
		}
	}
	if m.ELF().ResyncSwitches > 0 && len(res.samples) == 0 {
		t.Error("resync switches happened but no coupled-residency samples")
	}
	for _, v := range res.samples {
		if v < 0 {
			t.Fatalf("negative coupled residency %v", v)
		}
	}
	// Residency counts whole periods; drains are the tail of a subset of
	// them, so there can never be more drains than residencies.
	if len(drain.samples) > len(res.samples) {
		t.Errorf("%d drain samples > %d residency samples", len(drain.samples), len(res.samples))
	}
}

func TestProbeDetachAndNilFieldsAreSafe(t *testing.T) {
	m := MustNew(DefaultConfig().WithVariant(core.UELF), branchyProgram(t))
	m.AttachProbe(&Probe{}) // all observers nil: every site must skip
	m.Run(10_000)
	m.AttachProbe(nil) // detach mid-run
	m.Run(10_000)
}

func TestProbeMatchesUnprobedExecution(t *testing.T) {
	// A probed machine must be architecturally identical to an unprobed
	// one: same cycles, same commits, same flush counts.
	run := func(probe bool) *Stats {
		m := MustNew(DefaultConfig().WithVariant(core.UELF), branchyProgram(t))
		if probe {
			m.AttachProbe(&Probe{
				FlushRecovery:    &collector{},
				FAQOccupancy:     &collector{},
				CoupledResidency: &collector{},
				ResyncDrain:      &collector{},
			})
		}
		return m.Run(30_000)
	}
	a, b := run(false), run(true)
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.Flushes != b.Flushes {
		t.Errorf("probe perturbed execution: %+v vs %+v", a, b)
	}
}

func TestFAQHighWater(t *testing.T) {
	m := MustNew(DefaultConfig(), branchyProgram(t))
	m.Run(20_000)
	hw := m.FAQHighWater()
	if hw <= 0 || hw > DefaultConfig().FAQSize {
		t.Errorf("FAQ high-water %d out of (0, %d]", hw, DefaultConfig().FAQSize)
	}
	m.ResetStats()
	if m.FAQHighWater() > hw {
		t.Errorf("high-water grew across reset: %d", m.FAQHighWater())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	m := MustNew(DefaultConfig().WithVariant(core.UELF), branchyProgram(t))
	m.Run(2_000)
	tr := NewTracer(512)
	m.AttachTracer(tr)
	m.Run(400)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices, metas int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur == 0 {
				t.Errorf("complete event %q has zero duration", e.Name)
			}
			if e.TID < tidFetch || e.TID > tidBackend {
				t.Errorf("slice %q on unknown tid %d", e.Name, e.TID)
			}
			if _, ok := e.Args["seq"]; !ok {
				t.Errorf("slice %q missing seq arg", e.Name)
			}
		case "M":
			metas++
		}
	}
	if slices == 0 {
		t.Fatal("no pipeline slices in the trace")
	}
	if metas != 4 { // process name + 3 thread names
		t.Errorf("metadata events = %d, want 4", metas)
	}
}
