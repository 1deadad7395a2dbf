package pipeline

import (
	"elfetch/internal/core"
	"elfetch/internal/isa"
	"elfetch/internal/program"
	"elfetch/internal/uop"
)

// decode is the DEC stage: it consumes fetch groups whose latency has
// elapsed, performs the organisation-specific control logic (NoDCF
// decode-time prediction, DCF misfetch recovery, ELF coupled decisions and
// divergence recording), and forwards kept uops to rename.
func (m *Machine) decode(now uint64) {
	for m.inFlight.Len() > 0 {
		// Decode-buffer backpressure: hold groups while rename is backed
		// up (bounds renameQ like a real decode queue would).
		if m.renameQ.Len() > m.cfg.FetchWidth*4 {
			return
		}
		g := m.inFlight.Front()
		if g.canceled {
			m.inFlight.PopFront()
			continue
		}
		if g.decodeAt > now {
			return
		}
		stop, done := m.decodeGroup(now, g)
		// decodeGroup may have squashed the queue out from under us (its
		// stop path clears inFlight); only pop when g is still the head.
		if done && m.inFlight.Len() > 0 && m.inFlight.Front() == g {
			m.inFlight.PopFront()
		}
		if stop || !done {
			return
		}
	}
}

// decodeGroup processes one group in program order from its cursor.
// stop=true means a redirect/stall squashed the younger front-end contents;
// done=false means a structural stall paused the group mid-way (resume next
// cycle).
func (m *Machine) decodeGroup(now uint64, g *fetchGroup) (stop, done bool) {
	for i := g.next; i < len(g.uops); i++ {
		u := &g.uops[i]
		if u.Coupled && m.cfg.Front == FrontDCF {
			// Full tracking structures stall decode (the indexing
			// depends on every decoded instruction being recorded).
			isBr := u.SI.Class.IsBranch()
			if !m.elf.CanRecordCoupled(isBr, isBr) {
				g.next = i
				return false, false
			}
		}
		switch {
		case m.cfg.Front == FrontNoDCF:
			stop = m.decodeNoDCF(now, u)
		case u.Coupled:
			stop = m.decodeElfCoupled(now, u)
		default:
			stop = m.decodeDCFMode(now, u)
		}
		if stop {
			// Younger instructions of this group are overshoot.
			m.discardTail(g, i+1)
			m.squashUndecodedGroups()
			return true, true
		}
	}
	return false, true
}

// discardTail drops group instructions beyond keep, rolling back their
// coupled-count contributions.
func (m *Machine) discardTail(g *fetchGroup, keep int) {
	for j := keep; j < len(g.uops); j++ {
		if g.uops[j].Coupled {
			m.elf.OnCoupledSquash(1)
		}
	}
	g.uops = g.uops[:keep]
}

// keep forwards a decoded uop to rename, copying it into the renameQ tail
// slot.
func (m *Machine) keep(u *uop.Uop) {
	if m.tracer != nil {
		m.tracer.decoded(u.FetchID, m.now)
	}
	*m.renameQ.PushSlot() = *u
}

// frontRedirect points fetch at target starting at cycle `at`, rewinding
// the oracle binding past u.
func (m *Machine) frontRedirect(u *uop.Uop, target isa.Addr, at uint64) {
	if u.WrongPath {
		m.fetchPC = target
		m.redirectAt = at
		m.fetchBusyUntil = 0
		m.fetchHalted = false
		m.coupledStalled = false
	} else {
		m.resteerFetchTo(u.Seq+1, target, at)
	}
	if target == 0 {
		m.fetchHalted = true
	}
}

// ---- NoDCF: prediction in parallel with decode (Section III-B1) ----

func (m *Machine) decodeNoDCF(now uint64, u *uop.Uop) bool {
	si := u.SI
	if !si.Class.IsBranch() {
		m.keep(u)
		return false
	}

	u.HistCp = m.specHist
	u.RASCp = m.rasDCF.Checkpoint()
	u.HasCkpt = true
	redirect := false
	extra := 0

	switch si.Class {
	case isa.CondBranch:
		pred := m.tage.Predict(u.PC, m.specHist)
		u.TagePred, u.HasTage = pred, true
		u.PredTaken = pred.Taken
		m.specHist.UpdateCond(uint64(u.PC), pred.Taken)
		if pred.Taken {
			u.PredTarget = si.Target
			redirect = true
		}
	case isa.Jump:
		u.PredTaken, u.PredTarget = true, si.Target
		redirect = true
	case isa.Call:
		u.PredTaken, u.PredTarget = true, si.Target
		m.rasDCF.Push(u.PC.Next())
		redirect = true
	case isa.Ret:
		u.PredTaken = true
		if ra, ok := m.rasDCF.Pop(); ok {
			u.PredTarget = ra
		}
		m.specHist.UpdateIndirect(uint64(u.PredTarget))
		redirect = true
	default: // indirect branch / indirect call
		u.PredTaken = true
		if tgt, ok := m.btcL0.Predict(u.PC); ok {
			u.PredTarget = tgt
		} else {
			it := m.ittage.Predict(u.PC, m.specHist)
			u.ITPred, u.HasIT = it, true
			u.PredTarget = it.Target
			extra = m.cfg.IndirectSlowBubbles
		}
		if si.Class.IsCall() {
			m.rasDCF.Push(u.PC.Next())
		}
		m.specHist.UpdateIndirect(uint64(u.PredTarget))
		redirect = true
	}

	m.keep(u)
	if redirect {
		m.Stats.TakenBubbles += uint64(1 + extra)
		m.frontRedirect(u, u.PredTarget, now+1+uint64(extra))
		return true
	}
	return false
}

// ---- DCF decoupled mode: misfetch detection and recovery (Section III-C) ----

func (m *Machine) decodeDCFMode(now uint64, u *uop.Uop) bool {
	si := u.SI

	// The coupled RAS of U-ELF/RET-ELF is updated in both modes
	// (Section IV-D2).
	m.updateCoupledRAS(si, u.PC)

	if !si.Class.IsBranch() || u.PredTaken {
		m.keep(u)
		return false
	}
	// A branch the FAQ block did not predict taken: either a listed
	// conditional predicted not-taken (HasTage — fine), an invisible
	// never-taken conditional (fine), or a misfetch.
	if si.Class == isa.CondBranch {
		if u.FromSeqMiss {
			// BTB miss: decode may resteer using the predictor
			// ("if the branch predictor predicted taken").
			pred := m.tage.Predict(u.PC, m.dcf.Hist)
			if pred.Taken {
				u.TagePred, u.HasTage = pred, true
				u.PredTaken, u.PredTarget = true, si.Target
				m.keep(u)
				m.misfetchResteer(now, u, si.Target)
				return true
			}
		}
		m.keep(u)
		return false
	}

	// Unconditional branch unknown to the BTB: misfetch (Figure 2's
	// resteer-on-decode cases).
	var target isa.Addr
	switch si.Class {
	case isa.Jump, isa.Call:
		target = si.Target
	case isa.Ret:
		if ra, ok := m.rasDCF.Pop(); ok {
			target = ra
		}
	default: // indirect: only the target predictor can help
		it := m.ittage.Predict(u.PC, m.dcf.Hist)
		u.ITPred, u.HasIT = it, true
		target = it.Target
	}
	u.PredTaken, u.PredTarget = true, target
	m.keep(u)
	m.misfetchResteer(now, u, target)
	return true
}

// misfetchResteer recovers a decode-detected BTB miss: squash the front
// end, resteer BP1 — and, for elastic variants, enter coupled mode at the
// resolved target (Section IV-A).
func (m *Machine) misfetchResteer(now uint64, u *uop.Uop, target isa.Addr) {
	m.Stats.DecodeResteers++
	m.Stats.Flushes[uop.FlushFrontend]++
	if target != 0 {
		m.btbBuilder.ForceBoundary(target)
	}
	m.faq.Clear()
	m.faqOffset = 0
	m.headProcessed = false
	m.headRecorded = false
	if target == 0 {
		// No target anywhere (cold RAS / cold indirect predictors):
		// both engines wait for the execute-time resteer.
		m.dcf.Halt()
	} else {
		m.dcf.Resteer(target, m.dcf.Hist, nil)
	}
	m.frontRedirect(u, target, now+1)
	m.enterCoupledAt()
}

// ---- ELF coupled mode: decode decisions (Section IV-B/IV-C) ----

func (m *Machine) decodeElfCoupled(now uint64, u *uop.Uop) bool {
	si := u.SI
	d, target, predTaken, usedPred := m.elf.Variant.Resolve(
		m.elf.Pred, si.Class, u.PC, si.Target, m.cfg.SatFilter)
	if si.Class.IsBranch() {
		u.PredTaken = predTaken
		u.PredTarget = target
		u.CoupledPredUsed = usedPred
	}
	if m.elf.Pred.RAS != nil && si.Class.IsCall() {
		m.elf.Pred.RAS.Push(u.PC.Next())
	}

	// Period-relative index of this instruction: the tracking vector's
	// next slot when vectors are maintained (divergence indexes must match
	// exactly), otherwise the decode coupled count (L-ELF).
	if m.elf.TrackingEnabled() {
		u.CoupledIdx = m.elf.CoupledIdx()
	} else {
		_, dccBefore, _ := m.elf.Counts()
		u.CoupledIdx = dccBefore
	}
	u.CoupledGen = m.periodGen
	recTarget := target
	if recTarget == 0 && si.Class.IsDirect() {
		recTarget = si.Target
	}
	m.elf.RecordCoupled(si.Class, u.PredTaken, recTarget)
	m.elf.OnCoupledDecoded(1)
	if d != core.Stall {
		m.keep(u)
	}

	switch d {
	case core.Redirect:
		at := now + 1
		if m.cfg.CoupledZeroBubble {
			// Section IV-E: sub-cycle L0I + tiny coupled predictors
			// let coupled mode redirect without a bubble.
			at = now
		} else {
			m.Stats.TakenBubbles++
		}
		if !m.elf.TrackingEnabled() && (si.Class == isa.Jump || si.Class == isa.Call) {
			// Counts-only variants must still verify the DCF knows
			// about this unconditional (BTB-miss divergence).
			m.uncondChecks.PushBack(uncondCheck{idx: u.CoupledIdx, target: target})
		}
		m.frontRedirect(u, target, at)
		return true
	case core.Stall:
		// Hold the instruction at decode until the DCF resolves the
		// decision (it is released by adoptStalledDecision, or dies
		// with the period on a flush).
		m.coupledStalled = true
		m.stalled.active = true
		m.stalled.fetchID = u.FetchID
		m.stalled.idx = u.CoupledIdx
		m.stalled.u = *u
		// The blind sequential overshoot past this decision is
		// discarded (Section IV-B1 case 2b); the caller squashes the
		// in-flight groups, and the binding rewinds so the successor
		// refetches once the DCF takes over.
		if fetch, decode, _ := m.elf.Counts(); fetch > decode {
			m.elf.OvershootSquashes++
		}
		if !u.WrongPath {
			m.fetchSeq = u.Seq + 1
			m.onWrongPath = false
		}
		return true
	default:
		return false
	}
}

// updateCoupledRAS keeps the coupled RAS current in decoupled mode.
func (m *Machine) updateCoupledRAS(si *program.Static, pc isa.Addr) {
	if m.elf.Pred.RAS == nil {
		return
	}
	switch {
	case si.Class.IsCall():
		m.elf.Pred.RAS.Push(pc.Next())
	case si.Class.IsReturn():
		m.elf.Pred.RAS.Pop()
	}
}
