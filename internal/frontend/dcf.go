package frontend

import (
	"elfetch/internal/bpred"
	"elfetch/internal/btb"
	"elfetch/internal/isa"
)

// DCF is the decoupled fetch-address generator: the BP1/BP2 stages of
// Figure 1. Each non-bubble cycle it looks up the BTB with the current
// BPred PC, maps branch predictions onto the entry, and enqueues one FAQ
// block. Bubble accounting follows Section III-B2 exactly:
//
//   - L0 BTB hit: the 0-cycle loop lets the next BPred PC issue next cycle
//     with predictions from TAGE's bimodal component; if the tagged TAGE
//     components override the bimodal, BP2 resteers BP1 — one bubble.
//     Indirect targets from the L0 BTC or the RAS are assumed fast enough
//     to hide the bubble; an L0-BTC/RAS miss exposes the full ITTAGE
//     latency — three bubbles.
//   - L1 BTB hit: one bubble on a predicted-taken terminator, and one
//     bubble when the entry tracks fewer than MaxInsts instructions (the
//     speculative PC+16 proxy fallthrough was wrong). Indirect: one bubble
//     when the L0 BTC/RAS provides the target (like a direct taken
//     branch), three when ITTAGE must.
//   - L2 BTB hit: two additional bubbles (3-cycle access) on top of the
//     L1 rules.
//   - BTB miss: enqueue a sequential PC+MaxInsts guess each cycle.
type DCF struct {
	BTB  *btb.BTB
	Tage *bpred.TAGE
	IT   *bpred.ITTAGE
	BTC  *bpred.BTC
	RAS  *bpred.RAS

	// Hist is the DCF's speculative history (checkpointed per branch).
	Hist bpred.History

	// FAQ is the decoupling queue.
	FAQ *FAQ

	// BPredToFAQ is the latency (cycles) from block generation in BP1 to
	// consumability by fetch: 3 in the paper's 3-stage front (BP1, BP2,
	// FAQ) — the extra depth every flush pays and ELF hides (Figure 3).
	BPredToFAQ uint64

	pc      isa.Addr
	bubbles int
	halted  bool

	// predecoder, when set, resolves BTB misses from cached instruction
	// bytes (Boomerang-lite; Section VI-C / [11]).
	predecoder Predecoder

	// Stats
	Blocks        uint64
	SeqBlocks     uint64
	BubbleCount   uint64
	PredecodeHits uint64
	PredecodeMiss uint64
}

// NewDCF wires the generator; callers share the BTB/predictor instances
// with retire-time update logic.
func NewDCF(b *btb.BTB, tage *bpred.TAGE, it *bpred.ITTAGE, btc *bpred.BTC, ras *bpred.RAS, faq *FAQ) *DCF {
	return &DCF{BTB: b, Tage: tage, IT: it, BTC: btc, RAS: ras, FAQ: faq, BPredToFAQ: 3}
}

// PC returns the current BPred PC.
func (d *DCF) PC() isa.Addr { return d.pc }

// Halted reports whether the generator is waiting for a resteer (e.g. an
// unpredictable indirect with no target anywhere).
func (d *DCF) Halted() bool { return d.halted }

// Resteer restarts BP1 at pc with repaired speculative state. The FAQ is
// cleared by the caller when the resteer implies a full front-end squash
// (it does not when decode redirects only the generator).
func (d *DCF) Resteer(pc isa.Addr, h bpred.History, rasCp *bpred.RASCheckpoint) {
	d.pc = pc
	d.Hist = h
	if rasCp != nil {
		d.RAS.Restore(*rasCp)
	}
	// The resteer takes effect next cycle: one bubble before BP1 restarts.
	d.bubbles = 1
	d.halted = false
}

// Cycle advances BP1 by one cycle at the given time, possibly enqueuing a
// block.
func (d *DCF) Cycle(now uint64) {
	if d.halted || d.FAQ.Full() {
		return
	}
	if d.bubbles > 0 {
		d.bubbles--
		d.BubbleCount++
		return
	}

	entry, level := d.BTB.Lookup(d.pc)
	if level == btb.Miss && d.predecoder != nil {
		// Boomerang-lite: rebuild the entry from cached instruction
		// bytes instead of guessing sequentially; costs the probe +
		// predecode latency but avoids the Decode→BP1 loop.
		if e, ok := d.predecoder.Predecode(d.pc); ok {
			d.BTB.Install(e)
			entry, level = e, btb.L2
			d.bubbles += PredecodeBubbles
			d.PredecodeHits++
		} else {
			d.PredecodeMiss++
		}
	}
	// The block is built in its FAQ slot.
	blk := d.FAQ.Push()
	blk.Start = d.pc
	blk.Level = level
	blk.ReadyAt = now + d.BPredToFAQ
	if level == btb.Miss {
		// Sequential guessing past a BTB miss (Section III-C).
		blk.Count = btb.MaxInsts
		blk.NextPC = d.pc.Plus(btb.MaxInsts)
		blk.SeqMiss = true
		d.pc = blk.NextPC
		d.Blocks++
		d.SeqBlocks++
		return
	}
	blk.Count = int(entry.Count)
	blk.NextPC = entry.FallThrough()

	bimodalOverride := false // tagged TAGE overrode the bimodal on the L0 path
	indirectSlow := false    // ITTAGE (not L0 BTC/RAS) provided the target
	indirectFast := false    // L0 BTC/RAS provided the target

	for i := 0; i < int(entry.NumBranches); i++ {
		src := entry.Branches[i]
		br := &blk.Brs[blk.NumBr]
		blk.NumBr++
		br.Offset = int(src.Offset)
		br.Class = src.Class
		br.HistCp = d.Hist
		br.RASCp = d.RAS.Checkpoint()
		brPC := d.pc.Plus(br.Offset)

		switch {
		case src.Class == isa.CondBranch:
			br.Tage = d.Tage.Predict(brPC, d.Hist)
			br.HasTage = true
			br.PredTaken = br.Tage.Taken
			br.Target = src.Target
			if level == btb.L0 && br.Tage.Disagree() {
				bimodalOverride = true
			}
			d.Hist.UpdateCond(uint64(brPC), br.PredTaken)

		case src.Class == isa.Ret:
			br.PredTaken = true
			if ra, ok := d.RAS.Pop(); ok {
				br.Target = ra
				indirectFast = true
			} else {
				// Underflow: fall back to ITTAGE.
				br.IT = d.IT.Predict(brPC, d.Hist)
				br.HasIT = true
				br.Target = br.IT.Target
				indirectSlow = true
			}
			d.Hist.UpdateIndirect(uint64(br.Target))

		case src.Class.IsIndirect(): // indirect branch / indirect call
			br.PredTaken = true
			if tgt, ok := d.BTC.Predict(brPC); ok {
				br.Target = tgt
				indirectFast = true
			} else {
				br.IT = d.IT.Predict(brPC, d.Hist)
				br.HasIT = true
				br.Target = br.IT.Target
				indirectSlow = true
			}
			if src.Class.IsCall() {
				d.RAS.Push(brPC.Next())
			}
			d.Hist.UpdateIndirect(uint64(br.Target))

		default: // direct unconditional: jump or call
			br.PredTaken = true
			br.Target = src.Target
			if src.Class.IsCall() {
				d.RAS.Push(brPC.Next())
			}
		}

		if br.PredTaken {
			blk.Count = br.Offset + 1
			blk.TermTaken = true
			if br.Target != 0 {
				blk.NextPC = br.Target
			} else {
				// No target from any predictor: the generator
				// cannot follow; halt until resteered.
				blk.NextPC = 0
			}
			break
		}
	}

	// Bubble accounting.
	switch {
	case blk.TermTaken && indirectSlow:
		d.bubbles += 3
	case blk.TermTaken && indirectFast:
		if level != btb.L0 {
			d.bubbles++
		}
	case blk.TermTaken: // direct or conditional taken
		if level != btb.L0 {
			d.bubbles++
		}
	default: // fallthrough termination
		if level != btb.L0 && blk.Count < btb.MaxInsts {
			d.bubbles++ // proxy fallthrough (PC+16) was wrong
		}
	}
	if level == btb.L0 && bimodalOverride {
		d.bubbles++ // BP2 resteers BP1
	}
	if level == btb.L2 {
		d.bubbles += 2 // 3-cycle L2 BTB access
	}

	d.pc = blk.NextPC
	if blk.NextPC == 0 {
		d.halted = true
	}
	d.Blocks++
}

// Halt stops address generation until the next Resteer (no target is known
// anywhere — e.g. an indirect branch that missed every predictor must wait
// for execution).
func (d *DCF) Halt() { d.halted = true }
