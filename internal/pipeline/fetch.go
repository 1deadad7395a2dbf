package pipeline

import (
	"elfetch/internal/frontend"
	"elfetch/internal/isa"
	"elfetch/internal/uop"
)

// fetch is the FE stage. In coupled mode (NoDCF always; ELF after a flush)
// it blindly fetches sequential instructions from fetchPC. In decoupled
// mode it consumes FAQ blocks, optionally crossing a predicted-taken branch
// within the cycle when the branch and target lines map to different L0I
// interleave banks (Section VI-A).
func (m *Machine) fetch(now uint64) {
	switch {
	case m.fetchBusyUntil > now:
		m.Stats.CycFetchBusy++
		return
	case m.redirectAt > now:
		m.Stats.CycRedirect++
		return
	case m.fetchHalted:
		m.Stats.CycHalted++
		return
	}
	if m.inFlight.Len() >= maxInFlightGroups || m.renameQ.Len() > m.cfg.FetchWidth*4 {
		m.Stats.CycBackpressure++
		return
	}
	if m.inCoupledMode() {
		m.fetchCoupled(now)
		return
	}
	m.fetchDecoupled(now)
}

// fetchCoupled fetches FetchWidth sequential instructions from fetchPC.
func (m *Machine) fetchCoupled(now uint64) {
	if m.coupledStalled {
		m.Stats.CycCoupledStall++
		return
	}
	if m.switchPending {
		m.Stats.CycSwitchPending++
		return
	}
	m.Stats.CycCoupledFetch++
	elastic := m.cfg.Front == FrontDCF && m.elf.Variant.Elastic()
	if elastic {
		// Finite tracking structures stall the fetcher when full
		// (Section IV-C2): conservatively require a full group's room.
		if m.elf.TrackingEnabled() &&
			(!m.elf.CoupledVec.CanAppend() || !m.elf.CoupledTgts.CanAppend()) {
			return
		}
	}

	g := m.pushGroup()
	pc := m.fetchPC
	var lines [2]isa.Addr
	nLines := 0
	for i := 0; i < m.cfg.FetchWidth; i++ {
		m.newUop(g, pc, elastic)
		if elastic {
			m.elf.OnCoupledFetch(1)
			m.Stats.CoupledFetched++
		}
		line := pc.Line(m.hier.L0I.LineBytes())
		if nLines == 0 || lines[nLines-1] != line {
			lines[nLines] = line
			nLines++
		}
		pc = pc.Next()
	}
	m.fetchPC = pc

	lat := m.groupLatency(now, lines[:nLines])
	g.decodeAt = now + uint64(lat-1) + uint64(m.cfg.FetchToDecode)
	if lat > 1 {
		m.fetchBusyUntil = now + uint64(lat-1)
	}
}

// pushGroup claims the next inFlight ring slot and resets it for reuse,
// keeping the slot's uops backing array so steady-state fetch never
// allocates.
func (m *Machine) pushGroup() *fetchGroup {
	g := m.inFlight.PushSlot()
	g.uops = g.uops[:0]
	g.canceled = false
	g.next = 0
	g.decodeAt = 0
	return g
}

// fetchDecoupled consumes FAQ blocks.
func (m *Machine) fetchDecoupled(now uint64) {
	head := m.faq.Head()
	if head == nil || head.ReadyAt > now {
		m.Stats.CycFAQEmpty++
		return
	}
	m.Stats.CycDecoupledFetch++
	g := m.pushGroup()
	var lines [4]isa.Addr
	nLines := 0
	addLine := func(pc isa.Addr) {
		line := pc.Line(m.hier.L0I.LineBytes())
		for i := 0; i < nLines; i++ {
			if lines[i] == line {
				return
			}
		}
		if nLines < len(lines) {
			lines[nLines] = line
			nLines++
		}
	}

	crossed := false
	for len(g.uops) < m.cfg.FetchWidth {
		head = m.faq.Head()
		if head == nil || head.ReadyAt > now {
			break
		}
		pc := head.Start.Plus(m.faqOffset)
		u := m.newUop(g, pc, false)
		u.FromSeqMiss = head.SeqMiss
		m.bindBlockBranch(u, head, m.faqOffset)
		addLine(pc)
		m.faqOffset++

		if m.faqOffset >= head.Count {
			// Block exhausted.
			takenEnd := head.TermTaken
			next := head.NextPC
			m.popHead()
			if next == 0 {
				// Generator had no target: stop fetching until
				// an execute resteer.
				m.fetchHalted = true
				break
			}
			if takenEnd {
				// Crossing a predicted-taken branch within the
				// cycle requires the interleave condition; only
				// one crossing per cycle.
				if !m.cfg.InterleaveFetch || crossed {
					break
				}
				nb := m.faq.Head()
				if nb == nil || nb.ReadyAt > now ||
					m.hier.L0I.Interleave(pc) == m.hier.L0I.Interleave(nb.Start) {
					break
				}
				crossed = true
			}
		}
	}

	if len(g.uops) == 0 {
		m.inFlight.PopBack()
		return
	}
	lat := m.groupLatency(now, lines[:nLines])
	g.decodeAt = now + uint64(lat-1) + uint64(m.cfg.FetchToDecode)
	if lat > 1 {
		m.fetchBusyUntil = now + uint64(lat-1)
	}
}

// popHead removes the consumed FAQ head and resets the offset. In coupled
// mode popping is owned by the resync step, so this is only called from
// decoupled-mode fetch and recovery paths.
func (m *Machine) popHead() {
	m.faq.Pop()
	m.faqOffset = 0
	m.headProcessed = false
	m.headRecorded = false
}

// bindBlockBranch copies the FAQ block's prediction payload for the branch
// at the given offset into the uop.
func (m *Machine) bindBlockBranch(u *uop.Uop, blk *frontend.FAQBlock, offset int) {
	for i := 0; i < blk.NumBr; i++ {
		br := &blk.Brs[i]
		if br.Offset != offset {
			continue
		}
		u.PredTaken = br.PredTaken
		u.PredTarget = br.Target
		u.TagePred = br.Tage
		u.HasTage = br.HasTage
		u.ITPred = br.IT
		u.HasIT = br.HasIT
		u.HistCp = br.HistCp
		u.RASCp = br.RASCp
		u.HasCkpt = true
		return
	}
}

// groupLatency performs the I-cache accesses for the group's lines and
// returns the cycles until the instructions are available (1 = L0I hit).
// Lines covered by an in-flight prefetch complete when the prefetch does.
func (m *Machine) groupLatency(now uint64, lines []isa.Addr) int {
	lat := 1
	for _, line := range lines {
		l := m.demandFetch(now, line)
		if l > lat {
			lat = l
		}
	}
	return lat
}

func (m *Machine) demandFetch(now uint64, line isa.Addr) int {
	// An in-flight prefetch to this line completes the access early.
	for i := range m.pendingPF {
		if m.pendingPF[i].line == line {
			remaining := int(m.pendingPF[i].completeAt - now)
			m.pendingPF[i] = m.pendingPF[len(m.pendingPF)-1]
			m.pendingPF = m.pendingPF[:len(m.pendingPF)-1]
			m.hier.PrefetchI(line) // fill arrives now
			if remaining < 1 {
				remaining = 1
			}
			return remaining
		}
	}
	return m.hier.FetchLatency(line)
}

// prefetchStep issues FAQ-driven instruction prefetches on idle L0I cycles
// (Table II: older to younger, up to MaxPrefetch in flight).
func (m *Machine) prefetchStep(now uint64) {
	// Retire completed prefetches (fill the caches at completion).
	kept := m.pendingPF[:0]
	for _, p := range m.pendingPF {
		if p.completeAt <= now {
			m.hier.PrefetchI(p.line)
			continue
		}
		kept = append(kept, p)
	}
	m.pendingPF = kept

	if !m.cfg.FAQPrefetch || m.cfg.Front != FrontDCF {
		return
	}
	// L0I idle = fetch stalled on a miss or on a redirect this cycle.
	idle := m.fetchBusyUntil > now || m.redirectAt > now || m.fetchHalted
	if !idle || len(m.pendingPF) >= m.cfg.MaxPrefetch {
		return
	}
	lineBytes := m.hier.L0I.LineBytes()
	for i := 0; i < m.faq.Len() && len(m.pendingPF) < m.cfg.MaxPrefetch; i++ {
		blk := m.faq.At(i)
		for off := 0; off < blk.Count; off += lineBytes / isa.InstBytes {
			line := blk.Start.Plus(off).Line(lineBytes)
			if m.hier.L0I.Probe(line) || m.pfInFlight(line) {
				continue
			}
			lat := m.prefetchLatency(line)
			m.pendingPF = append(m.pendingPF, pendingPrefetch{line: line, completeAt: now + uint64(lat)})
			m.Stats.PrefetchIssued++
			if len(m.pendingPF) >= m.cfg.MaxPrefetch {
				return
			}
		}
	}
}

func (m *Machine) pfInFlight(line isa.Addr) bool {
	for _, p := range m.pendingPF {
		if p.line == line {
			return true
		}
	}
	return false
}

// prefetchLatency probes (without filling) where the line currently lives.
func (m *Machine) prefetchLatency(line isa.Addr) int {
	switch {
	case m.hier.L1I.Probe(line):
		return m.hier.Lat.L1I
	case m.hier.L2.Probe(line):
		return m.hier.Lat.L2
	case m.hier.L3.Probe(line):
		return m.hier.Lat.L3
	default:
		return m.hier.Lat.Mem
	}
}

// enterCoupledAt switches an elastic machine into coupled mode at pc
// (pipeline flush or decode-resolved BTB miss).
func (m *Machine) enterCoupledAt() {
	if m.cfg.Front != FrontDCF || !m.elf.Variant.Elastic() {
		return
	}
	m.elf.EnterCoupled()
	m.probeEnterCoupled(m.now)
	m.periodGen++
	m.coupledStalled = false
	m.switchPending = false
	m.headPeriodIdx = 0
	m.headProcessed = false
	m.headRecorded = false
	m.uncondChecks.Clear()
	m.stalled.active = false
}
