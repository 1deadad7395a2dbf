package core

import (
	"elfetch/internal/isa"
)

// Mode is the fetcher's PC-generation mode (Section IV-A).
type Mode uint8

const (
	// Decoupled: the FAQ drives the fetcher — the steady state.
	Decoupled Mode = iota
	// Coupled: the fetcher generates its own PCs — the transient state
	// entered after a flush or a decode-resolved BTB miss.
	Coupled
)

func (m Mode) String() string {
	if m == Coupled {
		return "coupled"
	}
	return "decoupled"
}

// ResyncAction is the per-cycle decision of the Figure 5 algorithm.
type ResyncAction uint8

const (
	// ResyncNone: DCF has not caught up; keep fetching coupled.
	ResyncNone ResyncAction = iota
	// ResyncPop: the FAQ head is fully covered by decoded coupled
	// instructions; pop it and stay coupled.
	ResyncPop
	// ResyncSwitch: switch to decoupled mode now. keepInHead says how
	// many of the head's instructions remain for decoupled fetch.
	ResyncSwitch
	// ResyncPrepare: the FAQ covers everything fetched so far; stop
	// initiating coupled fetches and let decode drain — the switch fires
	// once the decode count catches the fetch count. (The paper switches
	// one cycle earlier using a fixed-quantity in-flight adjustment,
	// Figure 5; draining instead costs at most the fetch-to-decode
	// latency and removes the in-flight-discard race.)
	ResyncPrepare
)

// Controller is the per-machine ELF state.
type Controller struct {
	// Variant is fixed at construction.
	Variant Variant
	// Pred are the coupled predictors (fields nil per variant).
	Pred CoupledPredictors
	// SatFilter gates COND-ELF speculation on counter saturation
	// (Section VI-B; the ablation bench flips it).
	SatFilter bool

	mode Mode

	// The three counts of Sections IV-B1/IV-C3, in instructions,
	// relative to the current coupled period:
	fetchCoupled  int // speculative: incremented as fetches initiate
	decodeCoupled int // non-speculative: incremented at decode
	decoupled     int // instructions covered by processed FAQ entries

	// draining: mode switched to Decoupled but coupled instructions are
	// still in flight to decode; vectors keep comparing until
	// decodeCoupled == fetchCoupled (Section IV-C3).
	draining bool

	// Divergence tracking (U-ELF family).
	CoupledVec, DecoupledVec   TrackVec
	CoupledTgts, DecoupledTgts TgtQueue

	// Stats.
	Periods           uint64 // completed coupled periods
	CoupledInstsTotal uint64 // decoded coupled insts summed over periods
	// PeriodHist buckets period lengths by powers of two: bucket i counts
	// periods of [2^i, 2^(i+1)) coupled instructions (bucket 0: 0-1).
	PeriodHist        [12]uint64
	Divergences       [4]uint64
	ResyncSwitches    uint64
	ResyncPops        uint64
	OvershootSquashes uint64
}

// NewController builds the controller for a variant.
func NewController(v Variant) *Controller {
	return &Controller{
		Variant:   v,
		Pred:      NewCoupledPredictors(v),
		SatFilter: true,
	}
}

// Mode returns the current fetch mode.
func (c *Controller) Mode() Mode { return c.mode }

// Draining reports coupled instructions still in flight after a switch.
func (c *Controller) Draining() bool { return c.draining }

// Counts exposes (fetchCoupled, decodeCoupled, decoupled) for tests and the
// Figure 5 reproduction.
func (c *Controller) Counts() (fetch, decode, decoupled int) {
	return c.fetchCoupled, c.decodeCoupled, c.decoupled
}

// EnterCoupled starts a coupled period (pipeline flush or BTB-miss
// recovery). The caller resteers the coupled fetch PC and the DCF; the
// controller resets its period-relative state. No-op for NoELF.
func (c *Controller) EnterCoupled() {
	if !c.Variant.Elastic() {
		return
	}
	c.mode = Coupled
	c.draining = false
	c.resetPeriodState()
}

func (c *Controller) resetPeriodState() {
	c.fetchCoupled, c.decodeCoupled, c.decoupled = 0, 0, 0
	c.CoupledVec.Reset()
	c.DecoupledVec.Reset()
	c.CoupledTgts.Reset()
	c.DecoupledTgts.Reset()
}

// OnCoupledFetch accounts a coupled fetch initiation of n instructions
// (the speculative "+FW" of Figure 5).
func (c *Controller) OnCoupledFetch(n int) { c.fetchCoupled += n }

// OnCoupledSquash rolls back n speculatively counted instructions
// (squashed cache accesses and decode-discarded overshoot — Figure 5's
// "-FW, -4" rollback).
func (c *Controller) OnCoupledSquash(n int) {
	c.fetchCoupled -= n
	if c.fetchCoupled < c.decodeCoupled {
		c.fetchCoupled = c.decodeCoupled
	}
}

// OnCoupledDecoded accounts n kept (non-discarded) coupled instructions
// passing decode. During draining it also completes resynchronization once
// every coupled instruction has been decoded.
func (c *Controller) OnCoupledDecoded(n int) {
	c.decodeCoupled += n
	if c.draining && c.decodeCoupled >= c.fetchCoupled {
		c.finishPeriod()
	}
}

// finishPeriod completes resynchronization: all coupled instructions have
// passed decode; counts and tracking reset (Figure 5, cycle 2).
func (c *Controller) finishPeriod() {
	c.Periods++
	c.CoupledInstsTotal += uint64(c.decodeCoupled)
	b := 0
	for v := c.decodeCoupled; v > 1 && b < len(c.PeriodHist)-1; v >>= 1 {
		b++
	}
	c.PeriodHist[b]++
	c.draining = false
	c.resetPeriodState()
}

// AvgCoupledInsts returns the average instructions fetched per coupled
// period (the Figure 8 secondary metric).
func (c *Controller) AvgCoupledInsts() float64 {
	if c.Periods == 0 {
		return 0
	}
	return float64(c.CoupledInstsTotal) / float64(c.Periods)
}

// ProcessHead runs the Figure 5 comparison for a *newly available* FAQ head
// covering `count` instructions. It must be called exactly once per head
// block, after this cycle's OnCoupledFetch/OnCoupledDecoded/OnCoupledSquash
// accounting. (The Section IV-B1 case-2b overshoot — a stalling variant
// blindly fetched past a control-flow decision — is the caller's job: when
// coupled fetch stalls at a decision, it squashes its in-flight excess via
// OnCoupledSquash, after which the count comparison below resolves the
// switch naturally.)
//
// Results:
//   - ResyncSwitch: switch to decoupled mode. keepInHead is how many of the
//     head's instructions remain for decoupled fetch (0 = consume it
//     whole; the rest are already covered by coupled fetches).
//   - ResyncPop: decode already covered the head; pop it and stay coupled.
//   - ResyncNone: DCF not caught up; stay coupled, head stays (call
//     RetryPop on later cycles).
func (c *Controller) ProcessHead(count int) (a ResyncAction, keepInHead int) {
	if c.mode != Coupled {
		return ResyncNone, 0
	}
	c.decoupled += count
	return c.evaluate(count)
}

// evaluate applies the mode-switch/pop rules against the current counts.
// headCount is the current head's contribution (already in decoupled).
func (c *Controller) evaluate(headCount int) (ResyncAction, int) {
	switch {
	case c.decoupled >= c.fetchCoupled && c.decodeCoupled >= c.fetchCoupled:
		// Everything fetched coupled has been decoded AND is covered
		// by processed FAQ entries: switch, trimming the overlap out
		// of the head.
		keep := c.decoupled - c.fetchCoupled
		if keep > headCount {
			keep = headCount
		}
		c.switchToDecoupled()
		return ResyncSwitch, keep
	case c.decoupled >= c.fetchCoupled:
		// Covered, but coupled instructions are still in flight to
		// decode: stop fetching and drain.
		return ResyncPrepare, 0
	case c.decodeCoupled >= c.decoupled:
		c.ResyncPops++
		return ResyncPop, 0
	default:
		return ResyncNone, 0
	}
}

// Reevaluate re-runs the switch/pop decision for an already-processed head
// (decode progress, squashes, or a prepare-drain may have unblocked it).
func (c *Controller) Reevaluate(headCount int) (ResyncAction, int) {
	if c.mode != Coupled {
		return ResyncNone, 0
	}
	return c.evaluate(headCount)
}

func (c *Controller) switchToDecoupled() {
	c.mode = Decoupled
	c.ResyncSwitches++
	// The switch requires decodeCoupled == fetchCoupled, so the period
	// completes immediately; nothing drains.
	c.finishPeriod()
}

// SwitchAfterDivergence applies a DCF win: the pipeline has squashed every
// coupled instruction younger than the divergence (so nothing undecoded
// remains in flight) and fast-forwarded the FAQ; fetching continues
// decoupled.
func (c *Controller) SwitchAfterDivergence() {
	if c.mode == Coupled {
		c.switchToDecoupled()
	}
}

// FetcherWins applies a fetcher win (stale direct target / unconditional
// unknown to the BTB): the DCF is flushed and restarts on the fetcher's
// path at period-relative instruction index resumeIdx and taken-branch
// ordinal resumeTgt. Fetching stays coupled; the decoupled stream's
// tracking state fast-forwards so comparison resumes aligned.
func (c *Controller) FetcherWins(resumeIdx, resumeTgt int) {
	c.DecoupledVec.ResumeAt(resumeIdx)
	c.DecoupledTgts.ResumeAt(resumeTgt)
	c.CoupledVec.release(resumeIdx)
	c.CoupledTgts.release(resumeTgt)
	c.decoupled = resumeIdx
}

// --- Divergence recording (U-ELF family; Section IV-C2) ---

// TrackingEnabled reports whether this variant maintains the vectors (only
// variants that speculate past control-flow decisions need them; L-ELF
// resynchronizes by counts alone).
func (c *Controller) TrackingEnabled() bool {
	return c.Variant.canCond() || c.Variant.canRet() || c.Variant.canInd()
}

// tracking reports whether records are being accepted right now.
func (c *Controller) tracking() bool {
	return c.TrackingEnabled() && (c.mode == Coupled || c.draining)
}

// CoupledIdx returns the period-relative index the next decoded coupled
// instruction will occupy.
func (c *Controller) CoupledIdx() int { return c.CoupledVec.Next() }

// RecordCoupled logs a decoded coupled instruction into the coupled
// bitvector (and target queue for taken branches). taken/target describe
// what the coupled fetcher did (its prediction). Returns false when the
// structures are full — the caller must stall coupled fetch.
func (c *Controller) RecordCoupled(class isa.Class, taken bool, target isa.Addr) bool {
	if !c.tracking() {
		return true
	}
	if !c.CoupledVec.CanAppend() {
		return false
	}
	isBr := class.IsBranch()
	if isBr && taken {
		if !c.CoupledTgts.CanAppend() {
			return false
		}
		c.CoupledTgts.Append(target, class.IsDirect(), c.CoupledVec.Next())
	}
	c.CoupledVec.Append(isBr, isBr && taken)
	return true
}

// RecordDecoupled logs one instruction of a processed FAQ block into the
// decoupled bitvector/target queue.
func (c *Controller) RecordDecoupled(class isa.Class, isBranch, taken bool, target isa.Addr) bool {
	if !c.tracking() {
		return true
	}
	if !c.DecoupledVec.CanAppend() {
		return false
	}
	if isBranch && taken {
		if !c.DecoupledTgts.CanAppend() {
			return false
		}
		c.DecoupledTgts.Append(target, class.IsDirect(), c.DecoupledVec.Next())
	}
	c.DecoupledVec.Append(isBranch, taken)
	return true
}

// CheckDivergence compares the two streams and returns the first
// divergence, if any (Section IV-C2). The caller applies the winner.
func (c *Controller) CheckDivergence() Divergence {
	if !c.tracking() {
		return Divergence{Kind: DivNone}
	}
	if d := CompareVectors(&c.CoupledVec, &c.DecoupledVec); d.Kind != DivNone {
		c.Divergences[d.Kind]++
		return d
	}
	if d := CompareTargets(&c.CoupledTgts, &c.DecoupledTgts); d.Kind != DivNone {
		c.Divergences[d.Kind]++
		return d
	}
	return Divergence{Kind: DivNone}
}

// CanRecordDecoupled reports whether a block of n instructions with t taken
// branches fits the decoupled tracking structures right now.
func (c *Controller) CanRecordDecoupled(n, t int) bool {
	if !c.tracking() {
		return true
	}
	return c.DecoupledVec.Next()-c.DecoupledVec.base+n <= TrackCap &&
		c.DecoupledTgts.Next()-c.DecoupledTgts.base+t <= TgtCap
}

// CanRecordCoupled reports whether one more decoded instruction of the
// given shape (branch/taken) fits the coupled tracking structures. When it
// does not, decode must stall — hardware stalls the fetcher on full
// bitvectors (Section IV-C2); silently skipping a record would desynchronise
// the period-relative indexing.
func (c *Controller) CanRecordCoupled(isBranch, taken bool) bool {
	if !c.tracking() {
		return true
	}
	if !c.CoupledVec.CanAppend() {
		return false
	}
	if isBranch && taken && !c.CoupledTgts.CanAppend() {
		return false
	}
	return true
}
