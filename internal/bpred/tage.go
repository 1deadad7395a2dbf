package bpred

import "elfetch/internal/isa"

// TAGE is the decoupled fetcher's conditional predictor (Table II:
// "state-of-art 32KB TAGE predictor (8 tagged tables)"), after Seznec [14].
//
// A bimodal table provides the base prediction; eight tagged tables indexed
// with geometrically increasing history lengths override it when they match.
// The paper's L0-BTB fast path uses only the bimodal component in the same
// cycle and treats a disagreeing tagged prediction as a one-bubble override
// in BP2 (Section III-B2) — hence Predict reports the bimodal component's
// direction (TAGEPred.BimodalTaken) alongside the full prediction.
type TAGE struct {
	bimodal []int8 // 2-bit counters, -2..1 (taken when >= 0)

	tables [NumTAGETables][]tageEntry // 1<<tageIdxBits entries each

	// useAltCtr implements USE_ALT_ON_NA: when newly allocated entries
	// are unreliable, prefer the alternate prediction.
	useAltCtr int8

	// allocSeed decorrelates allocation victim choice.
	allocSeed uint64
}

// NumTAGETables is the number of tagged tables.
const NumTAGETables = 8

// tageHistLens are the geometric history lengths per tagged table.
var tageHistLens = [NumTAGETables]uint{2, 4, 8, 12, 18, 27, 40, 60}

type tageEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed counter, -4..3 (taken when >= 0)
	useful uint8 // 2-bit usefulness
}

// TAGEPred carries everything Update needs to apply the outcome without
// re-reading predictor state: the indexing decisions made at prediction
// time. It is stored per in-flight conditional branch.
type TAGEPred struct {
	// Taken is the overall prediction.
	Taken bool
	// BimodalTaken is the base component's prediction (the only one
	// available on the L0-BTB fast path).
	BimodalTaken bool
	// provider is the matching table (-1 = bimodal), alt the next-longest
	// match (-1 = bimodal).
	provider, alt int8
	providerTaken bool
	altTaken      bool
	bimIdx        uint32
	idx           [NumTAGETables]uint32
	tag           [NumTAGETables]uint16
	weak          bool
}

// Disagree reports whether the tagged prediction overrides the bimodal —
// the condition that costs one bubble on the L0-BTB fast path.
func (p *TAGEPred) Disagree() bool { return p.Taken != p.BimodalTaken }

const (
	tageBimodalBits = 13 // 8K-entry bimodal
	tageIdxBits     = 10 // 1K entries per tagged table
	tageTagBits     = tageIdxBits + 1
)

// NewTAGE returns a predictor with the Table II geometry.
func NewTAGE() *TAGE {
	t := &TAGE{bimodal: make([]int8, 1<<tageBimodalBits)}
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, 1<<tageIdxBits)
	}
	return t
}

// StorageBits returns the approximate storage budget, for the Table II test.
func (t *TAGE) StorageBits() int {
	bits := len(t.bimodal) * 2
	for i := range t.tables {
		bits += len(t.tables[i]) * (tageTagBits + 3 + 2)
	}
	return bits
}

// tageIndexTag returns table i's index and tag for the branch at pc under
// history h. The index fold and the tag's second fold are both the
// tageIdxBits-wide fold (tageTagBits-1 == tageIdxBits), so each table
// folds its history twice, not three times.
func tageIndexTag(i int, pc uint64, h History) (uint32, uint16) {
	n := tageHistLens[i]
	fIdx := fold(h.GHR, n, tageIdxBits)
	fTag := fold(h.GHR, n, tageTagBits)
	pf := uint64(h.Path) & (1<<minUint(n, 16) - 1)
	idx := (pc>>2 ^ pc>>(2+tageIdxBits) ^ fIdx ^ pf<<1) & (1<<tageIdxBits - 1)
	tag := (pc>>2 ^ fTag ^ fIdx<<1) & (1<<tageTagBits - 1)
	return uint32(idx), uint16(tag)
}

func (t *TAGE) bimodalIndex(pc isa.Addr) uint32 {
	return uint32(uint64(pc) >> 2 & (1<<tageBimodalBits - 1))
}

// Predict returns the full TAGE prediction for the conditional branch at pc
// under speculative history h.
func (t *TAGE) Predict(pc isa.Addr, h History) TAGEPred {
	var p TAGEPred
	p.provider, p.alt = -1, -1
	p.bimIdx = t.bimodalIndex(pc)
	p.BimodalTaken = t.bimodal[p.bimIdx] >= 0
	p.providerTaken = p.BimodalTaken
	p.altTaken = p.BimodalTaken

	for i := 0; i < NumTAGETables; i++ {
		p.idx[i], p.tag[i] = tageIndexTag(i, uint64(pc), h)
	}
	for i := NumTAGETables - 1; i >= 0; i-- {
		e := &t.tables[i][p.idx[i]]
		if e.tag != p.tag[i] {
			continue
		}
		if p.provider < 0 {
			p.provider = int8(i)
			p.providerTaken = e.ctr >= 0
			p.weak = e.ctr == 0 || e.ctr == -1
		} else if p.alt < 0 {
			p.alt = int8(i)
			p.altTaken = e.ctr >= 0
			break
		}
	}
	p.Taken = p.providerTaken
	if p.provider >= 0 && p.weak && t.useAltCtr >= 0 {
		// Newly-allocated (weak) providers are unreliable; fall back to
		// the alternate prediction while useAltCtr says so.
		p.Taken = p.altTaken
	}
	return p
}

// Update trains the predictor with the resolved outcome. pred must be the
// value returned by Predict for this dynamic branch.
func (t *TAGE) Update(pc isa.Addr, pred TAGEPred, taken bool) {
	// USE_ALT_ON_NA bookkeeping.
	if pred.provider >= 0 && pred.weak && pred.providerTaken != pred.altTaken {
		if pred.altTaken == taken {
			t.useAltCtr = satInc8(t.useAltCtr, 3)
		} else {
			t.useAltCtr = satDec8(t.useAltCtr, -4)
		}
	}

	if pred.provider >= 0 {
		e := &t.tables[pred.provider][pred.idx[pred.provider]]
		if taken {
			e.ctr = satInc8(e.ctr, 3)
		} else {
			e.ctr = satDec8(e.ctr, -4)
		}
		// Usefulness: provider was right where alt was wrong.
		if pred.providerTaken != pred.altTaken {
			if pred.providerTaken == taken {
				if e.useful < 3 {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
	} else {
		b := &t.bimodal[pred.bimIdx]
		if taken {
			*b = satInc8(*b, 1)
		} else {
			*b = satDec8(*b, -2)
		}
	}

	// Allocate a longer-history entry on misprediction.
	if pred.Taken != taken && pred.provider < int8(NumTAGETables)-1 {
		t.allocate(pred, taken)
	}
}

func (t *TAGE) allocate(pred TAGEPred, taken bool) {
	start := int(pred.provider) + 1
	// Find a victim with useful == 0 among longer tables, preferring
	// shorter ones (classic TAGE allocation).
	t.allocSeed = t.allocSeed*6364136223846793005 + 1442695040888963407
	skip := int(t.allocSeed>>62) & 1 // probabilistic start offset
	allocated := false
	for i := start + skip; i < NumTAGETables; i++ {
		e := &t.tables[i][pred.idx[i]]
		if e.useful == 0 {
			e.tag = pred.tag[i]
			e.useful = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			allocated = true
			break
		}
	}
	if !allocated {
		// Decay usefulness so future allocations succeed.
		for i := start; i < NumTAGETables; i++ {
			e := &t.tables[i][pred.idx[i]]
			if e.useful > 0 {
				e.useful--
			}
		}
	}
}

func satInc8(v, max int8) int8 {
	if v < max {
		return v + 1
	}
	return v
}

func satDec8(v, min int8) int8 {
	if v > min {
		return v - 1
	}
	return v
}

func minUint(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}
