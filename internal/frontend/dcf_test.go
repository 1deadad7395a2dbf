package frontend

import (
	"testing"

	"elfetch/internal/bpred"
	"elfetch/internal/btb"
	"elfetch/internal/isa"
)

type rig struct {
	btb  *btb.BTB
	tage *bpred.TAGE
	it   *bpred.ITTAGE
	btc  *bpred.BTC
	ras  *bpred.RAS
	faq  *FAQ
	dcf  *DCF
	now  uint64
}

func newRig(cfg btb.Config) *rig {
	r := &rig{
		btb:  btb.New(cfg),
		tage: bpred.NewTAGE(),
		it:   bpred.NewITTAGE(),
		btc:  bpred.NewBTC(64),
		ras:  bpred.NewRAS(32),
		faq:  NewFAQ(32),
	}
	r.dcf = NewDCF(r.btb, r.tage, r.it, r.btc, r.ras, r.faq)
	return r
}

// run advances n cycles, draining the FAQ so it never back-pressures, and
// returns the blocks produced.
func (r *rig) run(n int) []FAQBlock {
	var out []FAQBlock
	for i := 0; i < n; i++ {
		r.dcf.Cycle(r.now)
		r.now++
		for r.faq.Len() > 0 {
			out = append(out, *r.faq.Head())
			r.faq.Pop()
		}
	}
	return out
}

// jumpPair installs A -> B -> A unconditional-jump entries.
func jumpPair(r *rig) (a, b isa.Addr) {
	a, b = isa.Addr(0x1000), isa.Addr(0x2000)
	r.btb.Install(btb.Entry{
		Start: a, Count: 2, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 1, Class: isa.Jump, Target: b}},
	})
	r.btb.Install(btb.Entry{
		Start: b, Count: 2, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 1, Class: isa.Jump, Target: a}},
	})
	return a, b
}

func TestDCFL0HitZeroBubbles(t *testing.T) {
	r := newRig(btb.DefaultConfig())
	a, _ := jumpPair(r)
	r.dcf.Resteer(a, bpred.History{}, nil)
	r.run(6) // absorb the resteer bubble and warm both entries into L0
	blocks := r.run(10)
	// Steady state: one block per cycle — the Figure 2 "L0 BTB hit" case.
	if len(blocks) != 10 {
		t.Errorf("L0 steady state produced %d blocks in 10 cycles, want 10", len(blocks))
	}
}

func TestDCFTakenBubbleWithoutL0(t *testing.T) {
	cfg := btb.DefaultConfig()
	cfg.L0Entries = 0
	r := newRig(cfg)
	a, _ := jumpPair(r)
	r.dcf.Resteer(a, bpred.History{}, nil)
	r.run(6)
	blocks := r.run(10)
	// L1 hit + taken terminator = 1 bubble per block: 5 blocks / 10 cycles
	// — Figure 2's "L1 BTB hit" timing.
	if len(blocks) != 5 {
		t.Errorf("L1 steady state produced %d blocks in 10 cycles, want 5", len(blocks))
	}
}

func TestDCFShortFallthroughBubble(t *testing.T) {
	cfg := btb.DefaultConfig()
	cfg.L0Entries = 0
	r := newRig(cfg)
	// Chain of 8-instruction fallthrough entries (no branches): the
	// PC+16 proxy is wrong each time -> 1 bubble each.
	start := isa.Addr(0x4000)
	pc := start
	for i := 0; i < 8; i++ {
		r.btb.Install(btb.Entry{Start: pc, Count: 8})
		pc = pc.Plus(8)
	}
	r.dcf.Resteer(start, bpred.History{}, nil)
	r.run(1) // resteer bubble
	blocks := r.run(8)
	if len(blocks) != 4 {
		t.Errorf("short-fallthrough chain: %d blocks in 8 cycles, want 4", len(blocks))
	}
}

func TestDCFFullFallthroughNoBubble(t *testing.T) {
	cfg := btb.DefaultConfig()
	cfg.L0Entries = 0
	r := newRig(cfg)
	start := isa.Addr(0x8000)
	pc := start
	for i := 0; i < 10; i++ {
		r.btb.Install(btb.Entry{Start: pc, Count: 16})
		pc = pc.Plus(16)
	}
	r.dcf.Resteer(start, bpred.History{}, nil)
	r.run(1) // resteer bubble
	blocks := r.run(8)
	// 16-instruction fallthrough entries: the PC+16 proxy is right, no
	// bubbles even from L1.
	if len(blocks) != 8 {
		t.Errorf("full-fallthrough chain: %d blocks in 8 cycles, want 8", len(blocks))
	}
}

func TestDCFBTBMissSequentialBlocks(t *testing.T) {
	r := newRig(btb.DefaultConfig())
	r.dcf.Resteer(0x100000, bpred.History{}, nil)
	r.run(1) // resteer bubble
	blocks := r.run(5)
	if len(blocks) != 5 {
		t.Fatalf("%d blocks in 5 cycles on BTB miss, want 5 (sequential guessing)", len(blocks))
	}
	for i, b := range blocks {
		if !b.SeqMiss || b.Count != btb.MaxInsts {
			t.Errorf("block %d: %+v, want SeqMiss 16-inst", i, b)
		}
		if b.Start != isa.Addr(0x100000).Plus(i*btb.MaxInsts) {
			t.Errorf("block %d start = %v", i, b.Start)
		}
	}
}

func TestDCFIndirectBTCFastVsITTAGESlow(t *testing.T) {
	cfg := btb.DefaultConfig()
	cfg.L0Entries = 0
	r := newRig(cfg)
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	r.btb.Install(btb.Entry{
		Start: a, Count: 1, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 0, Class: isa.IndirectBranch}},
	})
	r.btb.Install(btb.Entry{
		Start: b, Count: 1, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 0, Class: isa.Jump, Target: a}},
	})

	// Cold BTC, cold ITTAGE: ITTAGE path (3 bubbles) and no target at
	// all -> the generator halts awaiting resteer.
	r.dcf.Resteer(a, bpred.History{}, nil)
	r.run(2)
	if !r.dcf.Halted() {
		t.Fatal("generator should halt with no indirect target anywhere")
	}

	// Train the BTC: now the a-entry resolves in 1 bubble like a direct
	// taken branch.
	r.btc.Update(a, b)
	r.dcf.Resteer(a, bpred.History{}, nil)
	r.run(1) // resteer bubble
	blocks := r.run(8)
	// Cycle pattern: a (1 bubble), b (1 bubble) -> 2 blocks per 4 cycles.
	if len(blocks) != 4 {
		t.Errorf("BTC-hit steady state: %d blocks in 8 cycles, want 4", len(blocks))
	}

	// ITTAGE path: clear BTC by conflicting update, train ITTAGE.
	r2 := newRig(cfg)
	r2.btb.Install(btb.Entry{
		Start: a, Count: 1, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 0, Class: isa.IndirectBranch}},
	})
	r2.btb.Install(btb.Entry{
		Start: b, Count: 1, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 0, Class: isa.Jump, Target: a}},
	})
	for i := 0; i < 50; i++ {
		p := r2.it.Predict(a, bpred.History{})
		r2.it.Update(a, p, b)
	}
	r2.dcf.Resteer(a, bpred.History{}, nil)
	r2.run(1) // resteer bubble
	blocks = r2.run(12)
	// a costs 3 bubbles (ITTAGE), b costs 1 (direct, L1): 2 blocks / 6
	// cycles.
	if len(blocks) != 4 {
		t.Errorf("ITTAGE steady state: %d blocks in 12 cycles, want 4", len(blocks))
	}
}

func TestDCFCallPushesAndRetPops(t *testing.T) {
	r := newRig(btb.DefaultConfig())
	caller, callee := isa.Addr(0x1000), isa.Addr(0x3000)
	// caller: 2 insts, call at offset 1 -> callee; callee: ret at offset 0.
	r.btb.Install(btb.Entry{
		Start: caller, Count: 2, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 1, Class: isa.Call, Target: callee}},
	})
	r.btb.Install(btb.Entry{
		Start: callee, Count: 1, NumBranches: 1, Term: btb.TermUncond,
		Branches: [2]btb.Branch{{Offset: 0, Class: isa.Ret}},
	})
	r.dcf.Resteer(caller, bpred.History{}, nil)
	r.run(1) // resteer bubble
	blocks := r.run(6)
	if len(blocks) < 3 {
		t.Fatalf("only %d blocks generated", len(blocks))
	}
	if blocks[0].NextPC != callee {
		t.Errorf("call block NextPC = %v, want %v", blocks[0].NextPC, callee)
	}
	// The return should pop the pushed fallthrough: caller+2 insts.
	wantRA := caller.Plus(2)
	if blocks[1].NextPC != wantRA {
		t.Errorf("ret block NextPC = %v, want %v (popped RAS)", blocks[1].NextPC, wantRA)
	}
	// And the third block resumes at the return address.
	if blocks[2].Start != wantRA {
		t.Errorf("post-return block start = %v, want %v", blocks[2].Start, wantRA)
	}
}

func TestDCFCondUsesTAGEAndCheckpoints(t *testing.T) {
	r := newRig(btb.DefaultConfig())
	a := isa.Addr(0x1000)
	tgt := isa.Addr(0x5000)
	r.btb.Install(btb.Entry{
		Start: a, Count: 4, NumBranches: 1,
		Branches: [2]btb.Branch{{Offset: 3, Class: isa.CondBranch, Target: tgt}},
	})
	r.btb.Install(btb.Entry{Start: a.Plus(4), Count: 16})
	r.btb.Install(btb.Entry{Start: tgt, Count: 16})

	// Train TAGE to predict taken at a+3.
	brPC := a.Plus(3)
	for i := 0; i < 64; i++ {
		p := r.tage.Predict(brPC, r.dcf.Hist)
		r.tage.Update(brPC, p, true)
	}
	r.dcf.Resteer(a, bpred.History{}, nil)
	r.run(1) // resteer bubble
	blocks := r.run(3)
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	b := blocks[0]
	if !b.TermTaken || b.NextPC != tgt || b.Count != 4 {
		t.Fatalf("cond-taken block = %+v", b)
	}
	if b.NumBr == 0 {
		t.Fatal("taken block records no branch")
	}
	br := &b.Brs[b.NumBr-1] // the terminating taken branch
	if !br.HasTage {
		t.Fatal("taken branch missing TAGE payload")
	}
	// The history checkpoint must predate the branch's own update.
	if br.HistCp.GHR != 0 {
		t.Errorf("checkpoint GHR = %x, want pre-branch value 0", br.HistCp.GHR)
	}
	if r.dcf.Hist.GHR&1 != 1 {
		t.Error("speculative history not updated with the taken prediction")
	}
}

func TestFAQRingBehaviour(t *testing.T) {
	q := NewFAQ(4)
	for i := 0; i < 4; i++ {
		q.Push().Start = isa.Addr(0x1000 + i*64)
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.At(2).Start != 0x1080 {
		t.Errorf("At(2) = %v", q.At(2).Start)
	}
	q.Pop()
	q.Push().Start = 0x9000
	if q.Head().Start != 0x1040 {
		t.Errorf("head = %v", q.Head().Start)
	}
	if q.At(3).Start != 0x9000 {
		t.Errorf("wrap-around At(3) = %v", q.At(3).Start)
	}
	if q.At(4) != nil {
		t.Error("At out of range should be nil")
	}
	q.Clear()
	if q.Len() != 0 || q.Head() != nil {
		t.Error("Clear did not empty")
	}
}

func TestFAQOverflowPanics(t *testing.T) {
	q := NewFAQ(2)
	q.Push()
	q.Push()
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	q.Push()
}

func TestDCFBackpressureWhenFAQFull(t *testing.T) {
	r := newRig(btb.DefaultConfig())
	r.dcf.Resteer(0x100000, bpred.History{}, nil)
	for i := 0; i < 101; i++ {
		r.dcf.Cycle(uint64(i))
	}
	if r.faq.Len() != r.faq.Cap() {
		t.Errorf("FAQ len = %d, want %d (full)", r.faq.Len(), r.faq.Cap())
	}
	if got := r.dcf.Blocks; got != uint64(r.faq.Cap()) {
		t.Errorf("generated %d blocks, want exactly FAQ capacity %d", got, r.faq.Cap())
	}
}

func TestDCFResteerTiming(t *testing.T) {
	cfg := btb.DefaultConfig()
	cfg.L0Entries = 0
	r := newRig(cfg)
	a, _ := jumpPair(r)
	r.dcf.Resteer(a, bpred.History{}, nil)
	r.run(2) // bubble + first block (schedules a taken bubble)
	r.dcf.Resteer(a, bpred.History{GHR: 0xABC}, nil)
	if r.dcf.Hist.GHR != 0xABC {
		t.Error("history not restored on resteer")
	}
	// Resteer replaces any pending bubbles with exactly one restart
	// bubble: no block next cycle, then one per the L1 cadence.
	if blocks := r.run(1); len(blocks) != 0 {
		t.Error("block generated during the resteer bubble")
	}
	if blocks := r.run(1); len(blocks) != 1 {
		t.Error("BP1 did not restart after the resteer bubble")
	}
}
