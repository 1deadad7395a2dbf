// Package bpred implements the branch-prediction structures of Table II:
// the decoupled fetcher's 32KB TAGE conditional predictor, the two-level
// indirect target predictor (64-entry L0 branch target cache + ITTAGE L1),
// the 32-entry return address stack, and the coupled fetcher's small
// predictors for U-ELF (2K-entry 3-bit bimodal, its own RAS and BTC).
//
// All predictors speculate: global history is updated at prediction time and
// repaired on pipeline flushes via checkpoints (Section IV-D), so every
// predictor exposes a value-type checkpoint that the pipeline stores per
// in-flight branch.
package bpred

// History is the speculative global state shared by the history-based
// predictors: a 64-bit conditional-outcome history (newest outcome in bit 0)
// and a 16-bit path history of low PC bits. It is a value type; a copy *is*
// a checkpoint.
type History struct {
	// GHR is the global conditional-outcome history.
	GHR uint64
	// Path is the folded path history.
	Path uint16
}

// UpdateCond shifts a conditional outcome into the history.
func (h *History) UpdateCond(pc uint64, taken bool) {
	t := uint64(0)
	if taken {
		t = 1
	}
	h.GHR = h.GHR<<1 | t
	h.Path = h.Path<<1 ^ uint16(pc>>2)&0x3ff
}

// UpdateIndirect folds an indirect-branch target into the path history so
// ITTAGE can distinguish target-dependent contexts.
func (h *History) UpdateIndirect(target uint64) {
	h.Path = h.Path<<2 ^ uint16(target>>2)&0xfff
}

// fold compresses the low n bits of the history into width bits: the XOR
// of its width-bit chunks. It stops as soon as no history bits are left,
// since a zero chunk changes nothing.
func fold(v uint64, n, width uint) uint64 {
	if n < 64 {
		v &= (uint64(1) << n) - 1
	}
	mask := uint64(1)<<width - 1
	out := uint64(0)
	for ; v != 0; v >>= width {
		out ^= v & mask
	}
	return out
}
