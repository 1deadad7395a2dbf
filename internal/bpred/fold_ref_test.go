package bpred

import (
	"testing"

	"elfetch/internal/xrand"
)

// refFold is the reference model of fold: it counts the n history bits
// down width at a time instead of stopping once no bits are left.
func refFold(v uint64, n, width uint) uint64 {
	if n < 64 {
		v &= (uint64(1) << n) - 1
	}
	out := uint64(0)
	for n > 0 {
		out ^= v & ((uint64(1) << width) - 1)
		v >>= width
		if n >= width {
			n -= width
		} else {
			n = 0
		}
	}
	return out
}

// refTAGEIndexTag is the reference model of tageIndexTag: three folds per
// table, the index fold and the tag's two folds computed separately.
func refTAGEIndexTag(i int, pc uint64, h History) (uint32, uint16) {
	n := tageHistLens[i]
	hf := refFold(h.GHR, n, tageIdxBits)
	pf := uint64(h.Path) & ((1 << minUint(n, 16)) - 1)
	idx := uint32((pc>>2 ^ pc>>(2+tageIdxBits) ^ hf ^ pf<<1) & ((1 << tageIdxBits) - 1))
	hf = refFold(h.GHR, n, tageTagBits)
	hf2 := refFold(h.GHR, n, tageTagBits-1)
	tag := uint16((pc>>2 ^ hf ^ hf2<<1) & ((1 << tageTagBits) - 1))
	return idx, tag
}

// TestFoldMatchesReference compares fold with the counting loop for every
// history length 0..64 at the widths the predictors use (9–11), over
// random histories and the edge patterns.
func TestFoldMatchesReference(t *testing.T) {
	r := xrand.New(0xF01D)
	vals := []uint64{0, 1, ^uint64(0), 1 << 63, 0x8000_0000_0000_0001, 0x5555_5555_5555_5555}
	for len(vals) < 2000 {
		v := r.Uint64()
		// Mix in sparse histories, whose high bits run out early.
		if r.Bool(0.5) {
			v >>= uint(r.Intn(64))
		}
		vals = append(vals, v)
	}
	for width := uint(9); width <= 11; width++ {
		for n := uint(0); n <= 64; n++ {
			for _, v := range vals {
				if got, want := fold(v, n, width), refFold(v, n, width); got != want {
					t.Fatalf("fold(%#x, %d, %d) = %#x, reference %#x", v, n, width, got, want)
				}
			}
		}
	}
}

// TestTAGEIndexTagMatchesReference compares each table's index and tag
// with the three-fold reference over random branch PCs and histories.
func TestTAGEIndexTagMatchesReference(t *testing.T) {
	r := xrand.New(0x7A6E)
	for k := 0; k < 200_000; k++ {
		pc := r.Uint64() &^ 3
		h := History{GHR: r.Uint64(), Path: uint16(r.Uint64())}
		if r.Bool(0.3) {
			h.GHR >>= uint(r.Intn(64))
		}
		for i := 0; i < NumTAGETables; i++ {
			idx, tag := tageIndexTag(i, pc, h)
			widx, wtag := refTAGEIndexTag(i, pc, h)
			if idx != widx || tag != wtag {
				t.Fatalf("table %d pc %#x %+v: index/tag %d/%d, reference %d/%d", i, pc, h, idx, tag, widx, wtag)
			}
		}
	}
}
