package pipeline

import (
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/program"
	"elfetch/internal/workload"
)

func workloadLookup(n string) (*workload.Entry, error) { return workload.Lookup(n) }

// dumpState prints the machine's control state — kept as a debug helper.
func (m *Machine) dumpState(t *testing.T) {
	t.Helper()
	f, d, dc := m.elf.Counts()
	t.Logf("cyc=%d committed=%d mode=%v draining=%v stalled=%v halted=%v busyUntil=%d redirectAt=%d",
		m.now, m.Stats.Committed, m.elf.Mode(), m.elf.Draining(), m.coupledStalled, m.fetchHalted, m.fetchBusyUntil, m.redirectAt)
	t.Logf("  counts f=%d d=%d dc=%d | faq=%d off=%d headProc=%v headRec=%v headIdx=%d | inFlight=%d renameQ=%d robOcc=%d iq=%d",
		f, d, dc, m.faq.Len(), m.faqOffset, m.headProcessed, m.headRecorded, m.headPeriodIdx, m.inFlight.Len(), m.renameQ.Len(), m.be.Occupancy(), m.be.IQCount())
	t.Logf("  fetchPC=%v fetchSeq=%d wrongPath=%v dcfHalted=%v stalledRec=%+v",
		m.fetchPC, m.fetchSeq, m.onWrongPath, m.dcf != nil && m.dcf.Halted(), m.stalled)
	if h := m.faq.Head(); h != nil {
		t.Logf("  head start=%v count=%d ready=%d term=%v seqmiss=%v", h.Start, h.Count, h.ReadyAt, h.TermTaken, h.SeqMiss)
	}
	if r := m.be.OldestResolution(); r != nil {
		u := m.be.EntryByID(r.ID)
		t.Logf("  pending resolution id=%d kind=%v pc=%v coupled=%v bound=%v head=%d",
			r.ID, r.Kind, u.PC, u.Coupled, u.CkptBound, m.be.HeadID())
	}
	m.be.DumpWindow(func(id, pc uint64, class string, state uint8, pending int8, mdpWait int64, doneAt uint64, wrong bool) {
		t.Logf("  rob id=%d pc=0x%x %s state=%d pending=%d mdpWait=%d doneAt=%d wrong=%v", id, pc, class, state, pending, mdpWait, doneAt, wrong)
	})
}

// chaoticProgram mirrors TestChaoticBranchCausesFlushes.
func chaoticProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder(0x10000)
	f := b.Func("main")
	loop := f.Block("loop")
	loop.Nop(4)
	loop.CondTo(program.Bernoulli{P: 0.5, Salt: 1}, "other")
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

// debugWedge runs a machine watching for commit stalls and dumps state.
func debugWedge(t *testing.T, m *Machine, target uint64) {
	last := uint64(0)
	stuckSince := uint64(0)
	for i := 0; i < 40_000_000; i++ {
		m.Cycle()
		if m.Stats.Committed != last {
			last = m.Stats.Committed
			stuckSince = m.now
		}
		if m.now-stuckSince > 200000 {
			m.dumpState(t)
			for i := 0; i < m.renameQ.Len(); i++ {
				q := m.renameQ.At(i)
				t.Logf("  renameQ[%d] fid=%d pc=%v seq=%d wrong=%v class=%v", i, q.FetchID, q.PC, q.Seq, q.WrongPath, q.SI.Class)
				if i > 5 {
					break
				}
			}
			t.Fatalf("wedged at cycle %d after %d commits", m.now, last)
		}
		if m.Stats.Committed >= target {
			return
		}
	}
	t.Fatalf("too slow: %d commits", m.Stats.Committed)
}

func TestDebugWedgeHunt(t *testing.T) {
	for name, cfg := range allConfigs() {
		name, cfg := name, cfg
		t.Run("tiny/"+name, func(t *testing.T) {
			debugWedge(t, MustNew(cfg, tinyLoop(t)), 50_000)
		})
		t.Run("chaotic/"+name, func(t *testing.T) {
			debugWedge(t, MustNew(cfg, chaoticProgram(t)), 50_000)
		})
	}
}

func TestDebugLeelaUELF(t *testing.T) {
	e, err := workloadLookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	debugWedge(t, MustNew(DefaultConfig().WithVariant(core.UELF), e.Program()), 120_000)
}

func TestDebugFigureSetWedgeHunt(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, name := range workload.FigureSet() {
		e, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, cfg := range allConfigs() {
			name, cname, cfg, e := name, cname, cfg, e
			t.Run(name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				debugWedge(t, MustNew(cfg, e.Program()), 200_000)
			})
		}
	}
}
