package pipeline

import (
	"elfetch/internal/core"
	"elfetch/internal/frontend"
	"elfetch/internal/isa"
	"elfetch/internal/uop"
)

// resyncStep runs once per cycle for elastic variants. Order matters: the
// head block is first *recorded* into the decoupled tracking structures,
// then divergence is checked, and only if the streams still agree does the
// Figure 5 count algorithm get to pop heads or switch modes — otherwise a
// sequential BTB-miss guess could win the count race against a coupled
// stream that correctly followed a branch.
func (m *Machine) resyncStep(now uint64) {
	if m.elf.Mode() == core.Coupled {
		m.recordFAQHead(now)
	}
	if div := m.elf.CheckDivergence(); div.Kind != core.DivNone {
		m.applyDivergence(now, div)
		return
	}
	if m.elf.Mode() == core.Coupled {
		m.countFAQHead(now)
	}
}

// recordFAQHead logs a freshly available head block into the decoupled
// tracking structures, once.
func (m *Machine) recordFAQHead(now uint64) {
	head := m.faq.Head()
	if head == nil || head.ReadyAt > now || m.headRecorded || m.headProcessed {
		return
	}
	takens := 0
	if head.TermTaken {
		takens = 1
	}
	if !m.elf.CanRecordDecoupled(head.Count, takens) {
		return
	}
	m.recordDecoupledBlock(head)
	m.headRecorded = true
}

// countFAQHead runs the Figure 5 algorithm on a recorded head (or retries
// the pop condition for an already-counted one).
func (m *Machine) countFAQHead(now uint64) {
	head := m.faq.Head()
	if head == nil || head.ReadyAt > now {
		return
	}
	if !m.verifyUncondChecks(head) {
		return
	}
	var act core.ResyncAction
	var keep int
	switch {
	case m.headProcessed:
		act, keep = m.elf.Reevaluate(head.Count)
	case m.headRecorded:
		act, keep = m.elf.ProcessHead(head.Count)
		m.headProcessed = true
	default:
		return
	}
	switch act {
	case core.ResyncPop:
		m.headPeriodIdx += head.Count
		m.popHead()
		m.markCheckpointsBound()
	case core.ResyncSwitch:
		m.applySwitch(head, keep)
	case core.ResyncPrepare:
		// FAQ has caught up: stop initiating coupled fetches so decode
		// drains, then switch.
		m.switchPending = true
		m.probeSwitchPrepare(now)
	}
}

// applySwitch trims the FAQ head to its uncovered tail and resumes
// decoupled fetching (Figure 5, cycle 1). The coupled stream's next fetch
// PC is authoritative: if the resume point disagrees (count drift after a
// redirect the DCF saw differently), the FAQ is rebuilt from that PC
// instead of fetching from a misaligned block.
func (m *Machine) applySwitch(head *frontend.FAQBlock, keep int) {
	m.probeSwitchDecoupled(m.now)
	consumed := head.Count - keep
	m.headPeriodIdx += consumed
	var resume isa.Addr
	if keep == 0 {
		resume = head.NextPC
		if head.TermTaken && consumed < head.Count {
			// The terminating branch was coupled-fetched; its
			// successor is the coupled PC below anyway.
			resume = m.fetchPC
		}
		m.popHead()
	} else {
		m.trimHead(head, consumed)
		resume = head.Start
	}
	m.faqOffset = 0
	m.headProcessed = false
	m.headRecorded = false
	m.coupledStalled = false
	m.switchPending = false
	m.markCheckpointsBound()

	m.adoptStalledDecision(resume)
	if resume != m.fetchPC {
		// Misaligned: restart the DCF exactly at the coupled
		// successor (costs the BP1→FE refill, like a misfetch).
		m.faq.Clear()
		m.faqOffset = 0
		m.headProcessed = false
		m.headRecorded = false
		m.dcf.Resteer(m.fetchPC, m.dcf.Hist, nil)
	}
}

// trimHead drops the first `consumed` instructions of the block (they were
// fetched in coupled mode), dropping branches that fell off the front.
func (m *Machine) trimHead(head *frontend.FAQBlock, consumed int) {
	head.Start = head.Start.Plus(consumed)
	head.Count -= consumed
	kept := 0
	for i := 0; i < head.NumBr; i++ {
		br := head.Brs[i]
		if br.Offset < consumed {
			continue
		}
		br.Offset -= consumed
		head.Brs[kept] = br
		kept++
	}
	head.NumBr = kept
}

// markCheckpointsBound implements Section IV-D1 late binding: once FAQ
// information has covered the coupled instructions, their checkpoint-queue
// entries are populated and they may trigger immediate flushes.
func (m *Machine) markCheckpointsBound() {
	if m.cfg.Ckpt != CkptLateBind {
		return
	}
	m.ckptWatermark = m.fetchID
	m.be.MarkCkptBound(m.be.NextID())
	for i := 0; i < m.renameQ.Len(); i++ {
		if q := m.renameQ.At(i); q.Coupled {
			q.CkptBound = true
		}
	}
}

// recordDecoupledBlock logs every instruction the block covers into the
// decoupled tracking vector/target queue.
func (m *Machine) recordDecoupledBlock(head *frontend.FAQBlock) {
	for off := 0; off < head.Count; off++ {
		var cls isa.Class = isa.ALU
		isBr, taken := false, false
		var tgt isa.Addr
		for b := 0; b < head.NumBr; b++ {
			br := &head.Brs[b]
			if br.Offset != off {
				continue
			}
			cls = br.Class
			isBr = true
			taken = br.PredTaken
			tgt = br.Target
			break
		}
		m.elf.RecordDecoupled(cls, isBr, taken, tgt)
	}
}

// adoptStalledDecision hands the stalled control decision over to the DCF
// at the moment the machine switches to decoupled fetching: the resumption
// PC *is* the DCF's decision for the stalled branch (the FAQ entry drives
// the fetcher from here on, so its implied prediction is what the
// checkpoint machinery must validate at execution). ReResolve covers the
// race where the branch already executed under the stall-default.
func (m *Machine) adoptStalledDecision(resume isa.Addr) {
	if !m.stalled.active {
		return
	}
	m.stalled.active = false
	u := m.stalled.u
	if resume == 0 {
		// No target anywhere: release with the stall-default; the
		// execute-time resteer recovers.
		m.fetchHalted = true
		m.renameQ.PushBack(u)
		return
	}
	if resume == u.PC.Next() {
		u.PredTaken = false
		u.PredTarget = 0
	} else {
		u.PredTaken = true
		u.PredTarget = resume
	}
	m.fetchPC = resume
	m.renameQ.PushBack(u)
}

// findUopByFetchID searches the back end and the rename queue.
func (m *Machine) findUopByFetchID(fid uint64) *uop.Uop {
	if id, ok := m.be.FindByFetchID(fid); ok {
		return m.be.EntryByID(id)
	}
	for i := 0; i < m.renameQ.Len(); i++ {
		if q := m.renameQ.At(i); q.FetchID == fid {
			return q
		}
	}
	return nil
}

// verifyUncondChecks confirms the head block agrees with the unconditional
// direct branches the coupled stream followed (counts-only variants).
// Returns false when a fetcher-wins recovery was applied.
func (m *Machine) verifyUncondChecks(head *frontend.FAQBlock) bool {
	for m.uncondChecks.Len() > 0 {
		chk := *m.uncondChecks.Front()
		if chk.idx < m.headPeriodIdx {
			// Covered by an already-consumed block that agreed (or a
			// recovery): drop.
			m.uncondChecks.PopFront()
			continue
		}
		if chk.idx >= m.headPeriodIdx+head.Count {
			return true // head precedes the branch; fine to count it
		}
		off := chk.idx - m.headPeriodIdx
		ok := false
		for b := 0; b < head.NumBr; b++ {
			br := &head.Brs[b]
			if br.Offset == off && br.PredTaken && br.Target == chk.target {
				ok = true
				break
			}
		}
		if !ok {
			// The DCF does not know this branch (BTB miss): fetcher
			// wins — flush the DCF and restart it past the branch.
			m.faq.Clear()
			m.faqOffset = 0
			m.headProcessed = false
			m.headRecorded = false
			m.headPeriodIdx = chk.idx + 1
			m.dcf.Resteer(chk.target, m.dcf.Hist, nil)
			m.elf.FetcherWins(chk.idx+1, m.elf.CoupledTgts.Next())
			m.uncondChecks.PopFront()
			return false
		}
		m.uncondChecks.PopFront()
	}
	return true
}

// applyDivergence applies the Section IV-C2 winner rules.
func (m *Machine) applyDivergence(now uint64, div core.Divergence) {
	if div.Winner == core.WinFetcher {
		m.applyFetcherWin(div)
		return
	}
	m.applyDCFWin(now, div)
}

// applyFetcherWin: the fetcher's decoded direct target (or a decoded
// unconditional the BTB missed) outranks the DCF: flush the DCF and restart
// it on the fetcher's path; fetching continues coupled.
func (m *Machine) applyFetcherWin(div core.Divergence) {
	next := m.coupledNextPCAt(div.InstIdx)
	m.faq.Clear()
	m.faqOffset = 0
	m.headProcessed = false
	m.headPeriodIdx = div.InstIdx + 1
	m.dcf.Resteer(next, m.dcf.Hist, nil)
	m.elf.FetcherWins(div.InstIdx+1, m.elf.CoupledTgts.Next())
}

// coupledNextPCAt reconstructs the coupled stream's successor PC after the
// instruction at the given period index.
func (m *Machine) coupledNextPCAt(idx int) isa.Addr {
	if u := m.findCoupledUop(idx); u != nil {
		if u.PredTaken && u.PredTarget != 0 {
			return u.PredTarget
		}
		if u.PredTaken && u.SI.Class.IsDirect() {
			return u.SI.Target
		}
		return u.PC.Next()
	}
	// Fall back to the recorded target.
	if tgt, ok := m.elf.CoupledTgts.TargetAt(idx); ok && tgt != 0 {
		return tgt
	}
	return 0
}

// findCoupledUop locates the in-flight coupled uop with the given period
// index, in the back end or the rename queue.
func (m *Machine) findCoupledUop(idx int) *uop.Uop {
	if m.stalled.active && m.stalled.u.CoupledGen == m.periodGen && m.stalled.u.CoupledIdx == idx {
		return &m.stalled.u
	}
	if id, ok := m.be.FindByCoupledIdx(m.periodGen, idx); ok {
		return m.be.EntryByID(id)
	}
	for i := 0; i < m.renameQ.Len(); i++ {
		q := m.renameQ.At(i)
		if q.Coupled && q.CoupledGen == m.periodGen && q.CoupledIdx == idx {
			return q
		}
	}
	return nil
}

// applyDCFWin: trust the DCF — fix the diverging instruction's prediction
// to the DCF's intent, squash every younger coupled instruction, and
// continue decoupled from the FAQ (a mini-flush at the divergence point).
func (m *Machine) applyDCFWin(now uint64, div core.Divergence) {
	_, dTaken, _ := m.elf.DecoupledVec.IntentAt(div.InstIdx)
	dTarget, _ := m.elf.DecoupledTgts.TargetAt(div.InstIdx)

	u := m.findCoupledUop(div.InstIdx)
	if u != nil && !u.SI.Class.IsBranch() {
		// Safety net: a DCF win against a decoded non-branch means the
		// DCF stream is structurally bogus — the fetcher wins instead.
		m.applyFetcherWin(div)
		return
	}
	var next isa.Addr
	var bindSeq uint64
	bindOK := false
	if u != nil {
		u.PredTaken = dTaken
		if dTaken {
			if dTarget == 0 && u.SI.Class.IsDirect() {
				dTarget = u.SI.Target
			}
			u.PredTarget = dTarget
			next = dTarget
		} else {
			next = u.PC.Next()
		}
		if !u.WrongPath {
			bindSeq, bindOK = u.Seq+1, true
		}
		// The branch may already have executed under its old
		// prediction; re-evaluate so a now-mispredicted branch still
		// flushes.
		if id, ok := m.be.FindByFetchID(u.FetchID); ok {
			m.be.ReResolve(id)
		}
	}

	// Squash younger coupled instructions everywhere.
	if id, ok := m.be.FirstCoupledAfter(m.periodGen, div.InstIdx); ok {
		m.be.SquashFrom(id)
	}
	m.renameQ.Filter(func(q *uop.Uop) bool {
		return !(q.Coupled && q.CoupledGen == m.periodGen && q.CoupledIdx > div.InstIdx)
	})
	m.squashUndecodedGroups()

	// Rewind the oracle binding to the diverging instruction's successor.
	if bindOK {
		m.fetchSeq = bindSeq
		m.onWrongPath = false
	}
	m.redirectAt = now + 1
	m.fetchHalted = next == 0
	m.coupledStalled = false

	// Resolve the decode-held stalled instruction: if it is the diverging
	// one its (fixed) copy is released to rename; a younger one dies with
	// the squash.
	if m.stalled.active {
		if u == &m.stalled.u {
			m.renameQ.PushBack(m.stalled.u)
		}
		m.stalled.active = false
	}

	// Fast-forward the FAQ past the instructions the coupled stream kept.
	m.fastForwardFAQ(div.InstIdx+1, next)
	// The period-index bookkeeping can drift across recoveries; the
	// resume PC is authoritative. If the head does not start exactly at
	// the successor, restart the DCF there instead of fetching from a
	// misaligned block.
	if next != 0 {
		if head := m.faq.Head(); head != nil && head.Start != next {
			m.faq.Clear()
			m.faqOffset = 0
			m.headProcessed = false
			m.headRecorded = false
			m.headPeriodIdx = div.InstIdx + 1
			m.dcf.Resteer(next, m.dcf.Hist, nil)
		}
	}
	if m.elf.Mode() == core.Coupled {
		m.probeSwitchDecoupled(now)
	}
	m.elf.SwitchAfterDivergence()
	m.markCheckpointsBound()
}

// fastForwardFAQ pops/trims blocks so the head starts at period index
// target; if the queued blocks do not reach it, the DCF is resteered to
// resumePC.
func (m *Machine) fastForwardFAQ(target int, resumePC isa.Addr) {
	for {
		head := m.faq.Head()
		if head == nil {
			// The DCF has not generated that far: restart it at the
			// resume point.
			m.headPeriodIdx = target
			if resumePC != 0 {
				m.dcf.Resteer(resumePC, m.dcf.Hist, nil)
			} else {
				m.dcf.Halt()
			}
			return
		}
		skip := target - m.headPeriodIdx
		if skip <= 0 {
			return
		}
		if skip >= head.Count {
			m.headPeriodIdx += head.Count
			m.popHead()
			continue
		}
		m.trimHead(head, skip)
		m.headPeriodIdx = target
		m.faqOffset = 0
		m.headProcessed = false
		return
	}
}
