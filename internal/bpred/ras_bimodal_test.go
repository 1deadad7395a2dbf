package bpred

import (
	"testing"

	"elfetch/internal/isa"
)

func TestRASPushPop(t *testing.T) {
	r := NewRAS(32)
	r.Push(0x100)
	r.Push(0x200)
	if r.depth != 2 || r.entries[r.top] != 0x200 {
		t.Fatalf("top = %v at depth %d", r.entries[r.top], r.depth)
	}
	if ra, ok := r.Pop(); !ok || ra != 0x200 {
		t.Fatalf("Pop = %v,%v", ra, ok)
	}
	if ra, ok := r.Pop(); !ok || ra != 0x100 {
		t.Fatalf("Pop = %v,%v", ra, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty stack succeeded")
	}
}

func TestRASDeepRecursionWithinCapacity(t *testing.T) {
	r := NewRAS(32)
	for i := 0; i < 32; i++ {
		r.Push(isa.Addr(0x1000 + i*4))
	}
	for i := 31; i >= 0; i-- {
		ra, ok := r.Pop()
		if !ok || ra != isa.Addr(0x1000+i*4) {
			t.Fatalf("Pop %d = %v,%v", i, ra, ok)
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 0; i < 6; i++ {
		r.Push(isa.Addr(0x1000 + i*4))
	}
	// The newest 4 survive; the oldest two were overwritten.
	want := []isa.Addr{0x1014, 0x1010, 0x100c, 0x1008}
	for i, w := range want {
		ra, ok := r.Pop()
		if !ok || ra != w {
			t.Fatalf("Pop %d = %v,%v want %v", i, ra, ok, w)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("depth not saturated at capacity")
	}
}

func TestRASCheckpointRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	r.Push(0x200)
	cp := r.Checkpoint()
	// Wrong path: pop twice, push garbage.
	r.Pop()
	r.Pop()
	r.Push(0xBAD)
	r.Restore(cp)
	if ra, ok := r.Pop(); !ok || ra != 0x200 {
		t.Fatalf("post-restore Pop = %v,%v want 0x200", ra, ok)
	}
	// Note: entries *below* the checkpointed top that were overwritten on
	// the wrong path (the 0xBAD push landed in 0x100's slot) are NOT
	// repaired by the (tos, top-value) checkpoint — matching real
	// low-cost RAS repair, which mispredicts in exactly this situation.
	if ra, ok := r.Pop(); !ok || ra != 0xBAD {
		t.Fatalf("post-restore deep Pop = %v,%v; expected the documented "+
			"corruption (0xBAD)", ra, ok)
	}
}

func TestRASCheckpointRepairsOverwrittenTop(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	cp := r.Checkpoint()
	r.Pop()
	r.Push(0xBAD) // overwrites the same slot
	r.Restore(cp)
	if ra, ok := r.Pop(); !ok || ra != 0x100 {
		t.Fatalf("post-restore Pop = %v,%v want 0x100", ra, ok)
	}
}

func TestBimodalSaturationAndConfidence(t *testing.T) {
	b := NewBimodal(2048)
	pc := isa.Addr(0x100)
	// Initial mid-point: not taken, not confident.
	taken, conf := b.Predict(pc)
	if taken || conf {
		t.Fatalf("initial Predict = %v,%v", taken, conf)
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	taken, conf = b.Predict(pc)
	if !taken || !conf {
		t.Fatalf("after training taken: %v,%v want true,true", taken, conf)
	}
	// One not-taken breaks saturation but not direction.
	b.Update(pc, false)
	taken, conf = b.Predict(pc)
	if !taken || conf {
		t.Fatalf("after one not-taken: %v,%v want true,false", taken, conf)
	}
}

func TestBimodalStorage(t *testing.T) {
	if bits := NewBimodal(2048).StorageBits(); bits != 2048*3 {
		t.Errorf("storage = %d bits, want %d (Table II 0.75KB)", bits, 2048*3)
	}
}

func TestBimodalAliasing(t *testing.T) {
	b := NewBimodal(64)
	b.Update(0x100, true)
	// 64 entries * 4 bytes apart: pc + 256 aliases.
	for i := 0; i < 10; i++ {
		b.Update(0x100+256, false)
	}
	if taken, _ := b.Predict(0x100); taken {
		t.Error("aliased counter should now predict not-taken")
	}
}

func TestNewRASPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRAS(0) did not panic")
		}
	}()
	NewRAS(0)
}

func TestNewBimodalPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBimodal(3) did not panic")
		}
	}()
	NewBimodal(3)
}
