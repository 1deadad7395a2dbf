package backend

import (
	"testing"

	"elfetch/internal/cache"
	"elfetch/internal/isa"
	"elfetch/internal/program"
	"elfetch/internal/uop"
)

type bench struct {
	b    *Backend
	h    *cache.Hierarchy
	now  uint64
	fid  uint64
	seq  uint64
	pcs  isa.Addr
	rets []uop.Uop
}

func newBench() *bench {
	h := cache.NewHierarchy()
	return &bench{b: New(DefaultConfig(), h), h: h, pcs: 0x1000}
}

func st(pc isa.Addr, class isa.Class, dest, s1, s2 isa.Reg) *program.Static {
	return &program.Static{PC: pc, Class: class, Dest: dest, Src1: s1, Src2: s2, StateID: -1}
}

// mk builds a correct-path uop.
func (t *bench) mk(si *program.Static) *uop.Uop {
	t.fid++
	t.seq++
	return &uop.Uop{Seq: t.seq, FetchID: t.fid, PC: si.PC, SI: si}
}

// step runs one machine cycle: commit, execute, issue. Retired uops are
// copied out, since their ROB slots are reused.
func (t *bench) step() {
	t.b.Commit(t.now)
	for _, u := range t.b.DrainRetired() {
		t.rets = append(t.rets, *u)
	}
	t.b.Cycle(t.now)
	t.now++
}

// runUntilDrained steps until the window empties (bounded).
func (t *bench) runUntilDrained(tt *testing.T, max int) {
	tt.Helper()
	for i := 0; i < max; i++ {
		if t.b.ROBEmpty() {
			return
		}
		t.step()
	}
	tt.Fatalf("backend did not drain in %d cycles (occupancy %d)", max, t.b.Occupancy())
}

func TestIndependentALUThroughput(t *testing.T) {
	tb := newBench()
	const n = 400
	for i := 0; i < n; i++ {
		u := tb.mk(st(isa.Addr(0x1000+i*4), isa.ALU, 0, 0, 0))
		for !tb.b.Accept(u) {
			tb.step()
		}
	}
	start := tb.now
	tb.runUntilDrained(t, 1000)
	cycles := tb.now - start
	// 4 ALU ports: 400 independent ops need >= 100 cycles but far fewer
	// than serial execution.
	if cycles > 150 {
		t.Errorf("400 independent ALU ops took %d cycles (want ~100-150)", cycles)
	}
	if tb.b.Committed != n {
		t.Errorf("committed %d, want %d", tb.b.Committed, n)
	}
}

func TestSerialChainThroughput(t *testing.T) {
	tb := newBench()
	const n = 100
	for i := 0; i < n; i++ {
		// r1 = r1 + r1: a strict chain.
		u := tb.mk(st(isa.Addr(0x1000+i*4), isa.ALU, 1, 1, 0))
		for !tb.b.Accept(u) {
			tb.step()
		}
	}
	start := tb.now
	tb.runUntilDrained(t, 1000)
	cycles := tb.now - start
	if cycles < n {
		t.Errorf("serial chain of %d finished in %d cycles — dependences not honoured", n, cycles)
	}
}

func TestLoadLatencyFromHierarchy(t *testing.T) {
	tb := newBench()
	ld := tb.mk(st(0x1000, isa.Load, 1, 0, 0))
	ld.MemAddr = 0x2000000 // cold: memory latency
	use := tb.mk(st(0x1004, isa.ALU, 2, 1, 0))
	tb.b.Accept(ld)
	tb.b.Accept(use)
	start := tb.now
	tb.runUntilDrained(t, 2000)
	if got := tb.now - start; got < 250 {
		t.Errorf("cold load chain drained in %d cycles, want >= 250 (memory)", got)
	}
	// Warm: L1D hit.
	ld2 := tb.mk(st(0x1008, isa.Load, 1, 0, 0))
	ld2.MemAddr = 0x2000000
	use2 := tb.mk(st(0x100c, isa.ALU, 2, 1, 0))
	tb.b.Accept(ld2)
	tb.b.Accept(use2)
	start = tb.now
	tb.runUntilDrained(t, 100)
	if got := tb.now - start; got > 12 {
		t.Errorf("warm load chain took %d cycles, want a handful", got)
	}
}

func TestBranchMispredictionRaisesResolution(t *testing.T) {
	tb := newBench()
	br := tb.mk(st(0x1000, isa.CondBranch, 0, 0, 0))
	br.PredTaken = false
	br.ActTaken = true
	br.ActTarget = 0x4000
	tb.b.Accept(br)
	for i := 0; i < 10 && tb.b.OldestResolution() == nil; i++ {
		tb.step()
	}
	r := tb.b.OldestResolution()
	if r == nil {
		t.Fatal("no resolution raised")
	}
	if r.Kind != uop.FlushBranch || r.RefetchPC != 0x4000 || r.RefetchSeq != br.Seq+1 {
		t.Errorf("resolution = %+v", r)
	}
}

func TestIndirectTargetMispredictKind(t *testing.T) {
	tb := newBench()
	br := tb.mk(st(0x1000, isa.IndirectBranch, 0, 0, 0))
	br.PredTaken = true
	br.PredTarget = 0x2000
	br.ActTaken = true
	br.ActTarget = 0x3000
	tb.b.Accept(br)
	for i := 0; i < 10 && tb.b.OldestResolution() == nil; i++ {
		tb.step()
	}
	r := tb.b.OldestResolution()
	if r == nil || r.Kind != uop.FlushTarget {
		t.Fatalf("resolution = %+v, want target flush", r)
	}
}

func TestWrongPathBranchesRaiseNothing(t *testing.T) {
	tb := newBench()
	br := tb.mk(st(0x1000, isa.CondBranch, 0, 0, 0))
	br.WrongPath = true
	br.PredTaken = false
	br.ActTaken = true
	tb.b.Accept(br)
	tb.runUntilDrained(t, 50)
	if tb.b.OldestResolution() != nil {
		t.Error("wrong-path branch raised a resolution")
	}
	if len(tb.rets) != 0 {
		t.Error("wrong-path uop retired")
	}
}

func TestMemOrderViolationAndFilterTraining(t *testing.T) {
	tb := newBench()
	// Store whose address depends on a slow producer, then a load to the
	// same address that issues first -> violation.
	slow := tb.mk(st(0x1000, isa.MulDiv, 5, 0, 0))
	store := tb.mk(st(0x1004, isa.Store, 0, 5, 0)) // waits on r5
	store.MemAddr = 0x3000000
	load := tb.mk(st(0x1008, isa.Load, 1, 0, 0))
	load.MemAddr = 0x3000000
	tb.b.Accept(slow)
	tb.b.Accept(store)
	tb.b.Accept(load)
	var r *Resolution
	for i := 0; i < 100; i++ {
		tb.step()
		if r = tb.b.OldestResolution(); r != nil {
			break
		}
	}
	if r == nil {
		t.Fatal("no memory-order violation raised")
	}
	if r.Kind != uop.FlushMemOrder || r.RefetchPC != 0x1008 {
		t.Fatalf("resolution = %+v", r)
	}
	if tb.b.LoadViolations != 1 {
		t.Errorf("violations = %d", tb.b.LoadViolations)
	}

	// Second encounter: the filter should make the load wait — no second
	// violation.
	tb2 := newBench()
	tb2.b.mdp = tb.b.mdp // carry the trained filter
	slow2 := tb2.mk(st(0x1000, isa.MulDiv, 5, 0, 0))
	store2 := tb2.mk(st(0x1004, isa.Store, 0, 5, 0))
	store2.MemAddr = 0x3000000
	load2 := tb2.mk(st(0x1008, isa.Load, 1, 0, 0))
	load2.MemAddr = 0x3000000
	tb2.b.Accept(slow2)
	tb2.b.Accept(store2)
	tb2.b.Accept(load2)
	tb2.runUntilDrained(t, 500)
	if tb2.b.LoadViolations != 0 {
		t.Errorf("trained filter did not prevent the violation")
	}
	if tb2.b.Committed != 3 {
		t.Errorf("committed %d, want 3", tb2.b.Committed)
	}
}

func TestSquashFromDiscardsYounger(t *testing.T) {
	tb := newBench()
	a := tb.mk(st(0x1000, isa.ALU, 1, 0, 0))
	br := tb.mk(st(0x1004, isa.CondBranch, 0, 0, 0))
	young := tb.mk(st(0x1008, isa.ALU, 2, 1, 0))
	tb.b.Accept(a)
	tb.b.Accept(br)
	brID := tb.b.NextID() - 1
	tb.b.Accept(young)
	tb.b.SquashFrom(brID + 1)
	if tb.b.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", tb.b.Occupancy())
	}
	// Re-dispatch a different younger op reusing r2.
	y2 := tb.mk(st(0x400C, isa.ALU, 2, 1, 0))
	if !tb.b.Accept(y2) {
		t.Fatal("accept after squash failed")
	}
	tb.runUntilDrained(t, 100)
	if tb.b.Committed != 3 {
		t.Errorf("committed %d, want 3", tb.b.Committed)
	}
}

func TestROBBackpressure(t *testing.T) {
	tb := newBench()
	// Block the head behind a never-issuing producer chain... use a cold
	// load to stall the head long enough to fill the ROB.
	ld := tb.mk(st(0x1000, isa.Load, 1, 0, 0))
	ld.MemAddr = 0x5000000
	tb.b.Accept(ld)
	n := 1
	for tb.b.Accept(tb.mk(st(isa.Addr(0x2000+n*4), isa.ALU, 0, 1, 0))) {
		n++
	}
	if n != DefaultConfig().IQ && n != DefaultConfig().ROB {
		t.Logf("filled %d entries before back-pressure", n)
	}
	if tb.b.Accept(tb.mk(st(0x9000, isa.ALU, 0, 0, 0))) {
		t.Fatal("Accept succeeded past capacity")
	}
	tb.runUntilDrained(t, 2000)
}

func TestCommitInOrder(t *testing.T) {
	tb := newBench()
	fast := tb.mk(st(0x1004, isa.ALU, 2, 0, 0))
	slow := tb.mk(st(0x1000, isa.MulDiv, 1, 0, 0))
	tb.b.Accept(slow)
	tb.b.Accept(fast)
	tb.runUntilDrained(t, 100)
	if len(tb.rets) != 2 {
		t.Fatalf("retired %d", len(tb.rets))
	}
	if tb.rets[0].PC != 0x1000 || tb.rets[1].PC != 0x1004 {
		t.Errorf("retire order: %v then %v", tb.rets[0].PC, tb.rets[1].PC)
	}
}

func TestMarkCkptBound(t *testing.T) {
	tb := newBench()
	u := tb.mk(st(0x1000, isa.ALU, 0, 0, 0))
	u.Coupled = true
	tb.b.Accept(u)
	id := tb.b.NextID() - 1
	if e := tb.b.EntryByID(id); e == nil || e.CkptBound {
		t.Fatal("setup")
	}
	tb.b.MarkCkptBound(id)
	if e := tb.b.EntryByID(id); e == nil || !e.CkptBound {
		t.Error("MarkCkptBound did not set the flag")
	}
}

func TestMDPTableBasics(t *testing.T) {
	var m MDP
	m.Reset()
	if _, ok := m.Lookup(0x100); ok {
		t.Fatal("cold hit")
	}
	m.Train(0x100, 0x200)
	sp, ok := m.Lookup(0x100)
	if !ok || sp != 0x200 {
		t.Fatalf("Lookup = %v,%v", sp, ok)
	}
	// Retraining with a different store replaces.
	m.Train(0x100, 0x300)
	if sp, _ := m.Lookup(0x100); sp != 0x300 {
		t.Errorf("retrain: %v", sp)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	tb := newBench()
	// Store with a resolved address, then a load to the same slot that
	// issues a few cycles later (its address register depends on a
	// MulDiv): by then the store's address is known, so the load must
	// forward (fast) instead of paying the cold-memory latency.
	slow := tb.mk(st(0x0ffc, isa.MulDiv, 3, 0, 0))
	store := tb.mk(st(0x1000, isa.Store, 0, 0, 0))
	store.MemAddr = 0x7000000
	load := tb.mk(st(0x1004, isa.Load, 1, 3, 0)) // waits on the MulDiv
	load.MemAddr = 0x7000000
	tb.b.Accept(slow)
	tb.b.Accept(store)
	tb.b.Accept(load)
	start := tb.now
	tb.runUntilDrained(t, 200)
	if tb.b.ForwardedLoads != 1 {
		t.Errorf("forwarded loads = %d, want 1", tb.b.ForwardedLoads)
	}
	if got := tb.now - start; got > 40 {
		t.Errorf("forwarded chain took %d cycles — looks like a memory access", got)
	}
}

func TestNoForwardingAcrossDifferentSlots(t *testing.T) {
	tb := newBench()
	store := tb.mk(st(0x1000, isa.Store, 0, 0, 0))
	store.MemAddr = 0x7000000
	load := tb.mk(st(0x1004, isa.Load, 1, 0, 0))
	load.MemAddr = 0x7000100 // different 8-byte slot
	tb.b.Accept(store)
	tb.b.Accept(load)
	tb.runUntilDrained(t, 600)
	if tb.b.ForwardedLoads != 0 {
		t.Errorf("forwarded loads = %d, want 0", tb.b.ForwardedLoads)
	}
}

func TestIssueOldestFirstUnderPortPressure(t *testing.T) {
	tb := newBench()
	cfg := DefaultConfig()
	// In age order. With 4 ALU (2 MulDiv-capable), 2 SIMD and 2 memory
	// ports, oldest-first issue takes ALU 0, MulDivs 1 and 2 and ALU 4:
	// MulDiv 3 finds no MulDiv port but must not block the younger ALU 4,
	// which takes the last ALU port ahead of ALU 5.
	classes := []isa.Class{
		isa.ALU, isa.MulDiv, isa.MulDiv, isa.MulDiv, isa.ALU, isa.ALU,
		isa.SIMD, isa.SIMD, isa.SIMD, isa.Load, isa.Store, isa.Load,
	}
	want := map[int]bool{0: true, 1: true, 2: true, 4: true, 6: true, 7: true, 9: true, 10: true}
	head := tb.b.HeadID()
	for i, c := range classes {
		u := tb.mk(st(isa.Addr(0x1000+4*i), c, 0, 0, 0))
		u.MemAddr = isa.Addr(0x7000000 + 64*i)
		if !tb.b.Accept(u) {
			t.Fatalf("accept %d failed", i)
		}
	}
	// Arrival order must not matter: present the ready list youngest
	// first.
	for i, j := 0, len(tb.b.ready)-1; i < j; i, j = i+1, j-1 {
		tb.b.ready[i], tb.b.ready[j] = tb.b.ready[j], tb.b.ready[i]
	}
	tb.b.Cycle(tb.now)
	issued := 0
	for i := range classes {
		got := tb.b.slot(head+uint64(i)).state == stIssued
		if got != want[i] {
			t.Errorf("uop %d (%v): issued = %v, want %v", i, classes[i], got, want[i])
		}
		if got {
			issued++
		}
	}
	if limit := cfg.ALUPorts + cfg.MemPorts + cfg.SIMDPorts + 1; issued > limit {
		t.Errorf("%d uops issued in one cycle, issue width %d", issued, limit)
	}
}

func TestNoForwardingFromYoungerStore(t *testing.T) {
	tb := newBench()
	// The load's address waits on a MulDiv; the younger store to the same
	// slot resolves its address first. Forwarding is for older stores
	// only, so the load must go to memory.
	slow := tb.mk(st(0x0ffc, isa.MulDiv, 3, 0, 0))
	load := tb.mk(st(0x1000, isa.Load, 1, 3, 0))
	load.MemAddr = 0x7000000
	store := tb.mk(st(0x1004, isa.Store, 0, 0, 0))
	store.MemAddr = 0x7000000
	tb.b.Accept(slow)
	tb.b.Accept(load)
	tb.b.Accept(store)
	start := tb.now
	tb.runUntilDrained(t, 600)
	if tb.b.ForwardedLoads != 0 {
		t.Errorf("forwarded loads = %d, want 0", tb.b.ForwardedLoads)
	}
	if got := tb.now - start; got < 250 {
		t.Errorf("load finished in %d cycles — looks forwarded, want a memory access", got)
	}
}
