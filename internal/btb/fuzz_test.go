package btb

import (
	"testing"

	"elfetch/internal/isa"
	"elfetch/internal/xrand"
)

// TestBuilderFuzzInvariants drives the retire-time builder with a long
// randomized retire stream (random basic-block walks with calls, returns,
// taken/not-taken conditionals and stream jumps) and checks the structural
// invariants of every installed entry:
//
//   - 1 <= Count <= MaxInsts
//   - NumBranches <= MaxBranches
//   - branch offsets strictly increasing and < Count
//   - a TermUncond entry's last branch is unconditional and terminal
//   - direct branches carry their target; indirect carry none
func TestBuilderFuzzInvariants(t *testing.T) {
	hier := New(DefaultConfig())
	b := NewBuilder(hier)
	r := xrand.New(0xB77B)

	pc := isa.Addr(0x10000)
	checked := 0
	for step := 0; step < 200_000; step++ {
		roll := r.Intn(100)
		var class isa.Class
		taken := false
		var target isa.Addr
		switch {
		case roll < 70:
			class = isa.ALU
		case roll < 82:
			class = isa.CondBranch
			taken = r.Bool(0.4)
			target = isa.Addr(0x10000 + uint64(r.Intn(1<<14))*4)
		case roll < 88:
			class = isa.Jump
			taken = true
			target = isa.Addr(0x10000 + uint64(r.Intn(1<<14))*4)
		case roll < 93:
			class = isa.Call
			taken = true
			target = isa.Addr(0x10000 + uint64(r.Intn(1<<14))*4)
		case roll < 97:
			class = isa.Ret
			taken = true
		default:
			class = isa.IndirectBranch
			taken = true
		}
		b.Retire(pc, class, taken, target)
		if taken {
			pc = isa.Addr(0x10000 + uint64(r.Intn(1<<14))*4)
		} else {
			pc = pc.Next()
		}
		if r.Intn(50) == 0 {
			// Simulate a flush: the retire stream jumps and a
			// boundary is forced at the new point.
			pc = isa.Addr(0x10000 + uint64(r.Intn(1<<14))*4)
			b.ForceBoundary(pc)
		}

		// Periodically audit a random resident entry.
		if step%64 == 0 {
			probe := isa.Addr(0x10000 + uint64(r.Intn(1<<14))*4)
			e, lvl := resident(hier, probe)
			if lvl == Miss {
				continue
			}
			checked++
			if e.Count < 1 || e.Count > MaxInsts {
				t.Fatalf("entry %v: count %d", e.Start, e.Count)
			}
			if e.NumBranches > MaxBranches {
				t.Fatalf("entry %v: %d branches", e.Start, e.NumBranches)
			}
			prev := -1
			for i := 0; i < int(e.NumBranches); i++ {
				br := e.Branches[i]
				if int(br.Offset) >= int(e.Count) {
					t.Fatalf("entry %v: branch offset %d >= count %d", e.Start, br.Offset, e.Count)
				}
				if int(br.Offset) <= prev {
					t.Fatalf("entry %v: offsets not increasing", e.Start)
				}
				prev = int(br.Offset)
				if br.Class.IsDirect() && br.Target == 0 {
					t.Fatalf("entry %v: direct branch without target", e.Start)
				}
				if br.Class.IsIndirect() && br.Target != 0 {
					t.Fatalf("entry %v: indirect branch with stored target", e.Start)
				}
				if !br.Class.IsBranch() {
					t.Fatalf("entry %v: non-branch in slot", e.Start)
				}
			}
			if e.Term == TermUncond {
				if e.NumBranches == 0 {
					t.Fatalf("entry %v: TermUncond without branches", e.Start)
				}
				last := e.Branches[e.NumBranches-1]
				if !last.Class.IsUnconditional() {
					t.Fatalf("entry %v: TermUncond but last slot is %v", e.Start, last.Class)
				}
				if int(last.Offset) != int(e.Count)-1 {
					t.Fatalf("entry %v: terminal uncond not last instruction", e.Start)
				}
			}
		}
	}
	if checked < 500 {
		t.Fatalf("audited only %d entries; fuzz coverage too thin", checked)
	}
	if b.Installed == 0 {
		t.Fatal("no entries installed")
	}
}
