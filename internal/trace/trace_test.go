package trace

import (
	"testing"

	"elfetch/internal/isa"
	"elfetch/internal/program"
)

const base = isa.Addr(0x10000)

// loopCallProgram: main loops 4x{nop, call leaf, backedge}, leaf = nop+ret.
func loopCallProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder(base)
	m := b.Func("main")
	loop := m.Block("loop")
	loop.Nop(1)
	loop.CallTo("leaf")
	loop.CondTo(program.Loop{Trip: 4}, "loop")
	m.Block("wrap").JumpTo("loop")
	lf := b.Func("leaf")
	lf.Block("e").Nop(1).Ret()
	p, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOracleWalksCallsAndReturns(t *testing.T) {
	p := loopCallProgram(t)
	o := NewOracle(p)
	var d Dyn

	// nop at base
	o.Step(&d)
	if d.PC != base || d.SI.Class != isa.ALU || d.NextPC != base.Plus(1) {
		t.Fatalf("step0: %+v", d)
	}
	// call
	o.Step(&d)
	if d.SI.Class != isa.Call || !d.Taken || d.NextPC != p.Funcs[1].Entry {
		t.Fatalf("step1 (call): %+v", d)
	}
	if o.Depth() != 1 {
		t.Fatalf("depth after call = %d", o.Depth())
	}
	// leaf nop
	o.Step(&d)
	if d.PC != p.Funcs[1].Entry {
		t.Fatalf("step2: %+v", d)
	}
	// ret -> back to cond branch in main
	o.Step(&d)
	if d.SI.Class != isa.Ret || d.NextPC != base.Plus(2) {
		t.Fatalf("step3 (ret): %+v", d)
	}
	if o.Depth() != 0 {
		t.Fatalf("depth after ret = %d", o.Depth())
	}
	// backedge taken (loop trip 4: taken 3x then not taken)
	o.Step(&d)
	if d.SI.Class != isa.CondBranch || !d.Taken || d.NextPC != base {
		t.Fatalf("step4 (backedge): %+v", d)
	}
}

func TestOracleLoopExitAndWrap(t *testing.T) {
	p := loopCallProgram(t)
	o := NewOracle(p)
	var d Dyn
	// One iteration is nop,call,leafnop,ret,cond = 5 dynamic insts.
	// Iterations 1-3 take the backedge; iteration 4 falls through to the
	// wrap jump.
	for i := 0; i < 19; i++ {
		o.Step(&d)
	}
	// 20th instruction: the 4th cond, not taken.
	o.Step(&d)
	if d.SI.Class != isa.CondBranch || d.Taken {
		t.Fatalf("4th backedge should be not-taken: %+v", d)
	}
	o.Step(&d)
	if d.SI.Class != isa.Jump || d.NextPC != base {
		t.Fatalf("wrap jump: %+v", d)
	}
	if o.Restarts != 0 {
		t.Fatalf("unexpected restarts: %d", o.Restarts)
	}
}

func TestOracleSeqMonotone(t *testing.T) {
	p := loopCallProgram(t)
	o := NewOracle(p)
	var d Dyn
	for i := uint64(0); i < 1000; i++ {
		o.Step(&d)
		if d.Seq != i {
			t.Fatalf("seq = %d, want %d", d.Seq, i)
		}
	}
}

func TestOracleRestartOnEmptyStackReturn(t *testing.T) {
	b := program.NewBuilder(base)
	b.Func("f").Block("e").Ret()
	p, err := b.Build("f")
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(p)
	var d Dyn
	o.Step(&d)
	if d.NextPC != p.Entry {
		t.Fatalf("bare ret should restart at entry, got %v", d.NextPC)
	}
	if o.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", o.Restarts)
	}
}

func TestStreamReplayAfterSquash(t *testing.T) {
	p := loopCallProgram(t)
	s := NewStream(p)
	// Fetch forward.
	var first [50]Dyn
	for i := uint64(0); i < 50; i++ {
		first[i] = *s.Get(i)
	}
	// Squash back to 10 and re-fetch: records must be identical.
	for i := uint64(10); i < 50; i++ {
		d := s.Get(i)
		if *d != first[i] {
			t.Fatalf("replay mismatch at %d: %+v vs %+v", i, *d, first[i])
		}
	}
	if s.next != 50 {
		t.Fatalf("generated %d records, want 50", s.next)
	}
}

func TestStreamReleasePanicsBelowFloor(t *testing.T) {
	p := loopCallProgram(t)
	s := NewStream(p)
	s.Get(20)
	s.Release(10)
	defer func() {
		if recover() == nil {
			t.Error("Get below floor did not panic")
		}
	}()
	s.Get(5)
}

func TestStreamWindowOverflowPanics(t *testing.T) {
	p := loopCallProgram(t)
	s := NewStream(p)
	defer func() {
		if recover() == nil {
			t.Error("Get beyond window did not panic")
		}
	}()
	s.Get(DefaultStreamCap + 1)
}

func TestSynthDoesNotPerturbOracle(t *testing.T) {
	p := loopCallProgram(t)
	s1 := NewStream(p)
	s2 := NewStream(p)
	syn := NewSynth(p)
	for i := uint64(0); i < 200; i++ {
		d1 := *s1.Get(i)
		// Interleave wrong-path synthesis against stream 2.
		if si := syn.At(base.Plus(int(i) % p.Len())); si != nil && si.Class.IsMemory() {
			syn.MemAddr(si)
		}
		d2 := *s2.Get(i)
		if d1 != d2 {
			t.Fatalf("synth perturbed oracle at %d", i)
		}
	}
}

func TestSynthMemAddrStable(t *testing.T) {
	b := program.NewBuilder(base)
	f := b.Func("f")
	f.Block("e").
		Load(1, 0, program.SeqStream{Base: program.DataBase, Size: 1 << 12, Stride: 8}).
		JumpTo("e")
	p, err := b.Build("f")
	if err != nil {
		t.Fatal(err)
	}
	syn := NewSynth(p)
	ld := p.MustAt(base)
	a := syn.MemAddr(ld)
	if a < program.DataBase || a >= program.DataBase+1<<12 {
		t.Fatalf("synth address out of model bounds: %v", a)
	}
	if syn.MemAddr(p.MustAt(base.Plus(1))) != 0 {
		t.Error("non-memory instruction should synth addr 0")
	}
}

func TestDeepRecursionBounded(t *testing.T) {
	// A function that always recurses would blow the stack; the oracle
	// resets at MaxCallDepth. Build bounded recursion instead and check
	// depth tracks.
	b := program.NewBuilder(base)
	m := b.Func("main")
	m.Block("loop").CallTo("rec").JumpTo("loop")
	f := b.Func("rec")
	e := f.Block("e")
	e.CondTo(program.Loop{Trip: 8}, "again")
	e.Ret()
	again := f.Block("again")
	again.CallTo("rec")
	again.Ret()
	p, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(p)
	var d Dyn
	maxDepth := 0
	for i := 0; i < 10000; i++ {
		o.Step(&d)
		if o.Depth() > maxDepth {
			maxDepth = o.Depth()
		}
	}
	if maxDepth < 3 {
		t.Errorf("expected recursion depth >= 3, got %d", maxDepth)
	}
	if o.Restarts != 0 {
		t.Errorf("bounded recursion should not restart (got %d)", o.Restarts)
	}
}
