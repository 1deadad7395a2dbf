package btb

import (
	"testing"

	"elfetch/internal/isa"
)

// retireSeq feeds a straight-line run of n non-branch instructions.
func retireSeq(b *Builder, start isa.Addr, n int) {
	for i := 0; i < n; i++ {
		b.Retire(start.Plus(i), isa.ALU, false, 0)
	}
}

func TestBuilderMaxInstsEntry(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	retireSeq(b, 0x1000, 16)
	e, lvl := resident(hier, 0x1000)
	if lvl == Miss {
		t.Fatal("16-instruction run did not install an entry")
	}
	if e.Count != 16 || e.NumBranches != 0 || e.Term != TermFallthrough {
		t.Errorf("entry = %+v", e)
	}
	// The next instruction opens the follow-on entry at the fallthrough.
	retireSeq(b, 0x1000+16*4, 16)
	if _, lvl := resident(hier, 0x1000+16*4); lvl == Miss {
		t.Error("follow-on entry missing")
	}
}

func TestBuilderUncondTerminates(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	retireSeq(b, 0x2000, 3)
	b.Retire(0x2000+3*4, isa.Jump, true, 0x4000)
	e, lvl := resident(hier, 0x2000)
	if lvl == Miss {
		t.Fatal("entry not installed at unconditional")
	}
	if e.Count != 4 || e.Term != TermUncond || e.NumBranches != 1 {
		t.Fatalf("entry = %+v", e)
	}
	br := e.Branches[0]
	if br.Offset != 3 || br.Class != isa.Jump || br.Target != 0x4000 {
		t.Errorf("branch = %+v", br)
	}
}

func TestBuilderNeverTakenCondInvisible(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	retireSeq(b, 0x3000, 2)
	b.Retire(0x3000+2*4, isa.CondBranch, false, 0x5000) // never taken
	retireSeq(b, 0x3000+3*4, 13)
	e, _ := resident(hier, 0x3000)
	if e.NumBranches != 0 {
		t.Errorf("never-taken conditional occupies a slot: %+v", e)
	}
	if e.Count != 16 {
		t.Errorf("count = %d, want 16", e.Count)
	}
}

func TestBuilderTakenCondEndsWalkAndOccupiesSlot(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	retireSeq(b, 0x4000, 2)
	b.Retire(0x4000+2*4, isa.CondBranch, true, 0x6000)
	e, lvl := resident(hier, 0x4000)
	if lvl == Miss {
		t.Fatal("entry not installed at taken conditional")
	}
	if e.Count != 3 || e.NumBranches != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Branches[0].Target != 0x6000 || e.Branches[0].Class != isa.CondBranch {
		t.Errorf("branch = %+v", e.Branches[0])
	}
}

func TestBuilderAmendmentOnNewlyTakenCond(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	// First pass: conditional not taken -> invisible, entry covers 16.
	retireSeq(b, 0x5000, 2)
	b.Retire(0x5000+2*4, isa.CondBranch, false, 0x7000)
	retireSeq(b, 0x5000+3*4, 13)
	e, _ := resident(hier, 0x5000)
	if e.NumBranches != 0 {
		t.Fatalf("setup: %+v", e)
	}
	// Second pass: the conditional turns taken -> amended entry.
	retireSeq(b, 0x5000, 2)
	b.Retire(0x5000+2*4, isa.CondBranch, true, 0x7000)
	e, _ = resident(hier, 0x5000)
	if e.NumBranches != 1 || e.Count != 3 {
		t.Fatalf("amended entry = %+v", e)
	}
	// Third pass, not taken again: branch still occupies a slot
	// ("observed taken before"), and the entry can now extend past it.
	retireSeq(b, 0x5000, 2)
	b.Retire(0x5000+2*4, isa.CondBranch, false, 0x7000)
	retireSeq(b, 0x5000+3*4, 13)
	e, _ = resident(hier, 0x5000)
	if e.NumBranches != 1 || e.Count != 16 {
		t.Fatalf("re-extended entry = %+v", e)
	}
	if !b.everTaken.Contains(0x5000 + 2*4) {
		t.Error("observed-taken bit lost")
	}
}

func TestBuilderSplitOnThirdTakenCond(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	// Make three conditionals observed-taken (separate passes).
	pcs := []isa.Addr{0x6000 + 1*4, 0x6000 + 3*4, 0x6000 + 5*4}
	for _, pc := range pcs {
		b.Retire(pc, isa.CondBranch, true, 0x9000)
	}
	// Now a straight-line pass where all three are not taken: the third
	// needs a slot the entry does not have -> split before it.
	b.Retire(0x6000, isa.ALU, false, 0)
	b.Retire(pcs[0], isa.CondBranch, false, 0x9000)
	b.Retire(0x6000+2*4, isa.ALU, false, 0)
	b.Retire(pcs[1], isa.CondBranch, false, 0x9000)
	b.Retire(0x6000+4*4, isa.ALU, false, 0)
	b.Retire(pcs[2], isa.CondBranch, false, 0x9000)
	retireSeq(b, 0x6000+6*4, 10)

	first, lvl := resident(hier, 0x6000)
	if lvl == Miss {
		t.Fatal("first split entry missing")
	}
	if first.Count != 5 || first.NumBranches != 2 {
		t.Fatalf("first = %+v", first)
	}
	second, lvl := resident(hier, pcs[2])
	if lvl == Miss {
		t.Fatal("second split entry missing (should start at the third branch)")
	}
	if second.NumBranches != 1 || second.Branches[0].Offset != 0 {
		t.Fatalf("second = %+v", second)
	}
}

func TestBuilderIndirectStoresNoTarget(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	b.Retire(0x7000, isa.IndirectBranch, true, 0xDEAD0)
	e, _ := resident(hier, 0x7000)
	if e.NumBranches != 1 || e.Branches[0].Target != 0 {
		t.Errorf("indirect branch should store no target: %+v", e)
	}
	if e.Term != TermUncond {
		t.Errorf("term = %v, want TermUncond", e.Term)
	}
}

func TestBuilderRetireStreamJumpClosesEntry(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	retireSeq(b, 0x8000, 5)
	// Stream jumps (e.g. after a flush): open entry is finished as-is.
	retireSeq(b, 0x9000, 16)
	e, lvl := resident(hier, 0x8000)
	if lvl == Miss || e.Count != 5 {
		t.Errorf("jump-closed entry = %+v (lvl %v)", e, lvl)
	}
}

func TestBuilderCallAndRet(t *testing.T) {
	hier := newDefault()
	b := NewBuilder(hier)
	b.Retire(0xA000, isa.Call, true, 0xB000)
	b.Retire(0xB000, isa.ALU, false, 0)
	b.Retire(0xB004, isa.Ret, true, 0)
	call, _ := resident(hier, 0xA000)
	if call.NumBranches != 1 || call.Branches[0].Class != isa.Call || call.Branches[0].Target != 0xB000 {
		t.Errorf("call entry = %+v", call)
	}
	callee, _ := resident(hier, 0xB000)
	if callee.Count != 2 || callee.Branches[0].Class != isa.Ret || callee.Branches[0].Target != 0 {
		t.Errorf("callee entry = %+v", callee)
	}
}
