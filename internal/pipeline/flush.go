package pipeline

import (
	"elfetch/internal/bpred"
	"elfetch/internal/isa"
	"elfetch/internal/uop"
)

// handleResolutions applies the oldest pending back-end event (branch
// misprediction or memory-order violation): squash, repair speculative
// predictor state, resteer the front end — and, for elastic variants, drop
// into coupled mode so fetch can probe the I-cache immediately while BP1
// restarts (Section IV-A).
func (m *Machine) handleResolutions(now uint64) {
	m.be.ResetCommitLimit()
	r := m.be.OldestResolution()
	if r == nil {
		return
	}
	// The resolving uop is read in its ROB entry, looked up before
	// SquashFrom: a memory-order flush squashes the load's own entry, whose
	// slot keeps its contents until the next Accept.
	u := m.be.EntryByID(r.ID)
	// Coupled-checkpoint policy (Section IV-D1): an instruction without a
	// bound checkpoint cannot restore predictor state; it must wait for
	// binding (late-bind) or the ROB head.
	if u.Coupled {
		bound := u.CkptBound
		atHead := r.ID == m.be.HeadID()
		wait := false
		switch m.cfg.Ckpt {
		case CkptROBHeadWait:
			wait = !atHead
		default: // late bind
			wait = !bound && !atHead
		}
		if wait {
			m.Stats.CkptDeferredCycles++
			m.be.DeferredFlushes++
			// The deferred instruction must not retire before its
			// flush fires.
			m.be.LimitCommit(r.ID)
			return
		}
	}
	m.be.PopResolution()
	m.Stats.Flushes[r.Kind]++
	m.probeFlush(now)
	m.btbBuilder.ForceBoundary(r.RefetchPC)
	// Squash: memory-order violations refetch the load itself; branch
	// mispredictions keep the branch and squash younger.
	boundary := r.ID + 1
	if r.Kind == uop.FlushMemOrder {
		boundary = r.ID
	}
	m.be.SquashFrom(boundary)
	m.squashFrontendAll()
	// Repair speculative predictor state.
	hist, rasRepaired := m.repairSpeculativeState(u, r.Kind)
	// Restart the front end at the correct PC.
	if m.cfg.Front == FrontNoDCF {
		m.specHist = hist
		if !rasRepaired {
			m.rasDCF.CopyFrom(m.archRAS)
		}
		m.resteerFetchTo(r.RefetchSeq, r.RefetchPC, now+1)
		return
	}
	// DCF fronts: BP1 restarts with repaired state; the FAQ is gone.
	m.faq.Clear()
	m.faqOffset = 0
	m.headProcessed = false
	m.headRecorded = false
	if !rasRepaired {
		m.rasDCF.CopyFrom(m.archRAS)
	}
	m.dcf.Resteer(r.RefetchPC, hist, nil)
	m.resteerFetchTo(r.RefetchSeq, r.RefetchPC, now+1)
	m.enterCoupledAt()
	// Repair the coupled RAS from architectural state too (Section
	// IV-D2: on a flush both stacks must realign).
	if m.elf.Pred.RAS != nil {
		m.elf.Pred.RAS.CopyFrom(m.archRAS)
	}
}

// repairSpeculativeState rebuilds the speculative history and DCF RAS as of
// just *after* the flushing instruction. Returns the repaired history and
// whether the RAS was restored precisely from a checkpoint.
func (m *Machine) repairSpeculativeState(u *uop.Uop, kind uop.FlushKind) (bpred.History, bool) {
	var hist bpred.History
	precise := false
	if u.HasCkpt {
		hist = u.HistCp
		m.rasDCF.Restore(u.RASCp)
		precise = true
	} else {
		// Coupled-fetched without a bound per-branch checkpoint: the
		// architectural (retire-time) state is the best repair
		// available — the documented approximation for checkpoint-less
		// recovery.
		hist = m.retHist
	}
	if kind == uop.FlushMemOrder {
		// The load re-executes; no branch outcome to apply.
		return hist, precise
	}
	// Apply the flushing branch's actual outcome so the restarted BP1
	// continues from post-branch state.
	si := u.SI
	switch {
	case si.Class == isa.CondBranch:
		hist.UpdateCond(uint64(u.PC), u.ActTaken)
	case si.Class.IsBranch():
		hist.UpdateIndirect(uint64(u.ActTarget))
		if precise {
			switch {
			case si.Class.IsCall():
				m.rasDCF.Push(u.PC.Next())
			case si.Class.IsReturn():
				m.rasDCF.Pop()
			}
		}
	}
	return hist, precise
}
