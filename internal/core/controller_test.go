package core

import (
	"testing"

	"elfetch/internal/isa"
)

// TestFigure5ResyncScenario reproduces the paper's Figure 5 walk-through
// cycle by cycle: fetch width 8, decode already holding 8 instructions.
func TestFigure5ResyncScenario(t *testing.T) {
	c := NewController(UELF)
	c.EnterCoupled()
	const FW = 8

	// Pre-history: 8 instructions were fetched in a previous cycle and
	// are at decode; another 8 are in the I-cache access initiated last
	// cycle. Fetch coupled count = 16, decode coupled count = 8.
	c.OnCoupledFetch(FW) // cycle -2's access (now at decode)
	c.OnCoupledFetch(FW) // cycle -1's access (in flight)
	c.OnCoupledDecoded(8)
	if f, d, dc := c.Counts(); f != 16 || d != 8 || dc != 0 {
		t.Fatalf("pre-history counts = %d,%d,%d", f, d, dc)
	}

	// --- Cycle 0 ---
	// Decode receives 8 but the 4th is a taken branch: it keeps 4 and
	// the fetch access initiated last cycle will be squashed. Decode
	// coupled count 8 -> 12.
	c.OnCoupledDecoded(4)
	// Fetch initiates a new 8-wide access: fetch coupled count -> 24.
	c.OnCoupledFetch(FW)
	if f, d, _ := c.Counts(); f != 24 || d != 12 {
		t.Fatalf("cycle0 counts = %d,%d", f, d)
	}
	// FAQ entry A (count 12) becomes available. Next decoupled (12) <
	// next fetch coupled (24), but next decode (12) >= next decoupled
	// (12): pop.
	a, _ := c.ProcessHead(12)
	if a != ResyncPop {
		t.Fatalf("cycle0 action = %v, want pop", a)
	}

	// --- Cycle 1 ---
	// The squashed access (-8) and the taken-branch overshoot (-4) roll
	// back; a new access (+8) starts: 24-8-4+8 = 20.
	c.OnCoupledSquash(FW + 4)
	c.OnCoupledFetch(FW)
	if f, _, dc := c.Counts(); f != 20 || dc != 12 {
		t.Fatalf("cycle1 counts fetch=%d decoupled=%d", f, dc)
	}
	// FAQ entry B (count 10) arrives: next decoupled = 22 >= 20. The
	// paper switches immediately, adjusting the entry by "a fixed
	// quantity: fetch width times fetch-to-decode latency" to cover the
	// in-flight instructions (Figure 5 cycle 1). This implementation
	// instead *prepares*: coupled fetch pauses and the switch fires when
	// decode drains — at most FetchToDecode cycles later — which removes
	// the race where in-flight instructions are discarded after the
	// switch point was computed (see ResyncPrepare).
	a, _ = c.ProcessHead(10)
	if a != ResyncPrepare {
		t.Fatalf("cycle1 action = %v, want prepare", a)
	}
	if c.Mode() != Coupled {
		t.Fatal("still coupled while draining decode")
	}

	// --- Cycle 2 ---
	// Decode receives the last 8 coupled instructions: decode coupled
	// count reaches fetch coupled count -> the switch fires, the entry
	// keeps the 2 uncovered instructions, and the period completes.
	c.OnCoupledDecoded(8)
	var keep int
	a, keep = c.Reevaluate(10)
	if a != ResyncSwitch {
		t.Fatalf("cycle2 action = %v, want switch", a)
	}
	if keep != 2 {
		t.Fatalf("keep=%d, want 2", keep)
	}
	if c.Mode() != Decoupled || c.Draining() {
		t.Fatal("should be decoupled with nothing draining")
	}
	if f, d, dc := c.Counts(); f != 0 || d != 0 || dc != 0 {
		t.Fatalf("post-resync counts = %d,%d,%d, want zeros", f, d, dc)
	}
	if c.Periods != 1 || c.CoupledInstsTotal != 20 {
		t.Fatalf("period stats = %d periods, %d insts (want 1, 20)", c.Periods, c.CoupledInstsTotal)
	}
	if c.AvgCoupledInsts() != 20 {
		t.Fatalf("AvgCoupledInsts = %v", c.AvgCoupledInsts())
	}
}

func TestLELFOvershootSquash(t *testing.T) {
	// L-ELF blindly fetched 16 sequential instructions, but the FAQ head
	// says a taken branch ends the block after 10: the 6 overshot are
	// squashed and the machine switches from the next block (Section
	// IV-B1 case 2b).
	c := NewController(LELF)
	c.EnterCoupled()
	c.OnCoupledFetch(16)
	c.OnCoupledDecoded(10)
	// Decode stalls at the control decision (inst 10): the pipeline
	// discards the blind overshoot, rolling back its 6 fetch counts.
	c.OnCoupledSquash(6)
	if f, _, _ := c.Counts(); f != 10 {
		t.Fatalf("fetch count after stall squash = %d, want 10", f)
	}
	a, keep := c.ProcessHead(10)
	if a != ResyncSwitch || keep != 0 {
		t.Fatalf("action=%v keep=%d, want switch,0", a, keep)
	}
	// All kept coupled insts decoded: period closed immediately.
	if c.Draining() {
		t.Fatal("nothing left to drain")
	}
	if c.CoupledInstsTotal != 10 {
		t.Fatalf("coupled insts = %d, want 10", c.CoupledInstsTotal)
	}
}

func TestResyncPopThenSwitch(t *testing.T) {
	c := NewController(LELF)
	c.EnterCoupled()
	// 20 insts fetched & decoded; FAQ delivers blocks of 8.
	c.OnCoupledFetch(20)
	c.OnCoupledDecoded(20)
	if a, _ := c.ProcessHead(8); a != ResyncPop {
		t.Fatal("first head should pop")
	}
	if a, _ := c.ProcessHead(8); a != ResyncPop {
		t.Fatal("second head should pop")
	}
	a, keep := c.ProcessHead(16)
	if a != ResyncSwitch {
		t.Fatalf("third head action = %v, want switch", a)
	}
	// decoupled 32 vs fetched 20: 12 instructions of the head remain.
	if keep != 12 {
		t.Fatalf("keep = %d, want 12", keep)
	}
}

func TestReevaluateAfterDecodeProgress(t *testing.T) {
	c := NewController(LELF)
	c.EnterCoupled()
	c.OnCoupledFetch(16)
	c.OnCoupledDecoded(4)
	if a, _ := c.ProcessHead(8); a != ResyncNone {
		t.Fatal("head should not resolve yet")
	}
	if a, _ := c.Reevaluate(8); a != ResyncNone {
		t.Fatal("reevaluate should still say none")
	}
	c.OnCoupledDecoded(4)
	if a, _ := c.Reevaluate(8); a != ResyncPop {
		t.Fatal("reevaluate after decode progress should pop")
	}
}

func TestPrepareDrainThenSwitch(t *testing.T) {
	// The FAQ covers everything fetched, but some coupled instructions
	// are still in flight to decode: prepare (pause fetch), then switch
	// once decode catches up.
	c := NewController(LELF)
	c.EnterCoupled()
	c.OnCoupledFetch(16)
	c.OnCoupledDecoded(8)
	a, _ := c.ProcessHead(16)
	if a != ResyncPrepare {
		t.Fatalf("action = %v, want prepare (8 insts undecoded)", a)
	}
	c.OnCoupledDecoded(8)
	a, keep := c.Reevaluate(16)
	if a != ResyncSwitch || keep != 0 {
		t.Fatalf("action = %v keep=%d, want switch,0", a, keep)
	}
	if c.Draining() {
		t.Fatal("switch with drained decode must not leave draining set")
	}
	if c.Periods != 1 || c.CoupledInstsTotal != 16 {
		t.Fatalf("period stats %d/%d", c.Periods, c.CoupledInstsTotal)
	}
}

func TestEnterCoupledNoopForBaseline(t *testing.T) {
	c := NewController(NoELF)
	c.EnterCoupled()
	if c.Mode() != Decoupled {
		t.Error("NoELF must never enter coupled mode")
	}
}

func TestVariantCapabilities(t *testing.T) {
	cases := []struct {
		v              Variant
		ret, ind, cond bool
	}{
		{LELF, false, false, false},
		{RETELF, true, false, false},
		{INDELF, false, true, false},
		{CONDELF, false, false, true},
		{UELF, true, true, true},
	}
	for _, tc := range cases {
		p := NewCoupledPredictors(tc.v)
		if (p.RAS != nil) != tc.ret {
			t.Errorf("%v RAS presence = %v", tc.v, p.RAS != nil)
		}
		if (p.BTC != nil) != tc.ind {
			t.Errorf("%v BTC presence = %v", tc.v, p.BTC != nil)
		}
		if (p.Bimodal != nil) != tc.cond {
			t.Errorf("%v Bimodal presence = %v", tc.v, p.Bimodal != nil)
		}
	}
}

func TestCoupledPredictorBudgetUnder2KB(t *testing.T) {
	p := NewCoupledPredictors(UELF)
	if kb := float64(p.StorageBits()) / 8 / 1024; kb >= 2 {
		t.Errorf("U-ELF coupled predictors = %.2fKB, Table II promises < 2KB", kb)
	}
}

func TestResolveDecisions(t *testing.T) {
	v := UELF
	p := NewCoupledPredictors(v)

	// Non-branch: sequential.
	if d, _, _, _ := v.Resolve(p, isa.ALU, 0x100, 0, true); d != Sequential {
		t.Error("ALU should be sequential")
	}
	// Direct unconditional: redirect to the decoded target, even for
	// L-ELF ("not a control-flow decision").
	if d, tgt, taken, used := v.Resolve(p, isa.Jump, 0x100, 0x2000, true); d != Redirect || tgt != 0x2000 || !taken || used {
		t.Error("jump should redirect to decoded target without a predictor")
	}
	if d, _, _, _ := LELF.Resolve(NewCoupledPredictors(LELF), isa.Call, 0x100, 0x2000, true); d != Redirect {
		t.Error("L-ELF should follow direct calls")
	}
	// Return with empty coupled RAS: stall.
	if d, _, _, _ := v.Resolve(p, isa.Ret, 0x100, 0, true); d != Stall {
		t.Error("return with empty RAS should stall")
	}
	p.RAS.Push(0x3000)
	if d, tgt, _, used := v.Resolve(p, isa.Ret, 0x100, 0, true); d != Redirect || tgt != 0x3000 || !used {
		t.Error("return should pop the coupled RAS")
	}
	// Indirect: BTC miss stalls, hit redirects.
	if d, _, _, _ := v.Resolve(p, isa.IndirectBranch, 0x100, 0, true); d != Stall {
		t.Error("indirect with cold BTC should stall")
	}
	p.BTC.Update(0x100, 0x4000)
	if d, tgt, _, _ := v.Resolve(p, isa.IndirectBranch, 0x100, 0, true); d != Redirect || tgt != 0x4000 {
		t.Error("indirect with BTC hit should redirect")
	}
	// Conditional: mid-counter stalls under the saturation filter.
	if d, _, _, _ := v.Resolve(p, isa.CondBranch, 0x200, 0x5000, true); d != Stall {
		t.Error("unsaturated conditional should stall under the filter")
	}
	// ... but speculates when the filter is off.
	if d, _, _, _ := v.Resolve(p, isa.CondBranch, 0x200, 0x5000, false); d == Stall {
		t.Error("filter off: conditional should not stall")
	}
	// Saturate taken: redirect.
	for i := 0; i < 8; i++ {
		p.Bimodal.Update(0x200, true)
	}
	if d, tgt, taken, used := v.Resolve(p, isa.CondBranch, 0x200, 0x5000, true); d != Redirect || tgt != 0x5000 || !taken || !used {
		t.Error("saturated-taken conditional should redirect")
	}
	// Saturate not-taken: sequential.
	for i := 0; i < 16; i++ {
		p.Bimodal.Update(0x200, false)
	}
	if d, _, taken, _ := v.Resolve(p, isa.CondBranch, 0x200, 0x5000, true); d != Sequential || taken {
		t.Error("saturated-not-taken conditional should be sequential")
	}
	// L-ELF stalls on all of them.
	lp := NewCoupledPredictors(LELF)
	for _, cls := range []isa.Class{isa.CondBranch, isa.Ret, isa.IndirectBranch, isa.IndirectCall} {
		if d, _, _, _ := LELF.Resolve(lp, cls, 0x100, 0x2000, true); d != Stall {
			t.Errorf("L-ELF should stall on %v", cls)
		}
	}
}

func TestRecordAndDivergenceLifecycle(t *testing.T) {
	c := NewController(UELF)
	c.EnterCoupled()
	c.OnCoupledFetch(8)

	// Coupled decodes: nop, cond predicted taken to 0x100.
	if !c.RecordCoupled(isa.ALU, false, 0) {
		t.Fatal("record failed")
	}
	if !c.RecordCoupled(isa.CondBranch, true, 0x100) {
		t.Fatal("record failed")
	}
	// DCF: same nop, cond predicted NOT taken.
	c.RecordDecoupled(isa.ALU, false, false, 0)
	c.RecordDecoupled(isa.CondBranch, true, false, 0)
	div := c.CheckDivergence()
	if div.Kind != DivDirection || div.Winner != WinDCF || div.Index != 1 {
		t.Fatalf("div = %+v", div)
	}
	if c.Divergences[DivDirection] != 1 {
		t.Error("divergence not counted")
	}

	// Apply the DCF win: squash the coupled excess and switch.
	c.OnCoupledSquash(6) // 8 fetched, keep the 2 decoded
	c.SwitchAfterDivergence()
	if c.Mode() != Decoupled {
		t.Fatal("not switched")
	}
}

func TestLELFDoesNotTrack(t *testing.T) {
	c := NewController(LELF)
	c.EnterCoupled()
	if c.TrackingEnabled() {
		t.Fatal("L-ELF needs no divergence tracking")
	}
	// Records are accepted (as no-ops) and never diverge.
	c.RecordCoupled(isa.CondBranch, true, 0x100)
	c.RecordDecoupled(isa.CondBranch, true, false, 0)
	if div := c.CheckDivergence(); div.Kind != DivNone {
		t.Fatalf("L-ELF diverged: %+v", div)
	}
}

func TestFetcherWinsRealignsDecoupledStream(t *testing.T) {
	c := NewController(UELF)
	c.EnterCoupled()
	c.OnCoupledFetch(8)
	// Coupled: decoded a taken unconditional at idx 0 that the DCF
	// missed (BTB miss).
	c.RecordCoupled(isa.Jump, true, 0x4000)
	c.RecordDecoupled(isa.ALU, false, false, 0)
	div := c.CheckDivergence()
	if div.Winner != WinFetcher {
		t.Fatalf("div = %+v", div)
	}
	// Apply: DCF restarts at the jump target; decoupled stream resumes
	// at inst index 1, taken-branch ordinal 1.
	c.FetcherWins(div.InstIdx+1, 1)
	if c.Mode() != Coupled {
		t.Fatal("fetcher win must stay coupled")
	}
	// New DCF stream from 0x4000 agrees with coupled fetch.
	c.RecordCoupled(isa.ALU, false, 0)
	c.RecordDecoupled(isa.ALU, false, false, 0)
	if d := c.CheckDivergence(); d.Kind != DivNone {
		t.Fatalf("post-realign divergence: %+v", d)
	}
	_, _, dc := c.Counts()
	if dc != 1 {
		t.Errorf("decoupled count = %d, want fast-forwarded 1", dc)
	}
}

func TestVariantStrings(t *testing.T) {
	if NoELF.String() != "DCF" || UELF.String() != "U-ELF" {
		t.Error("variant names")
	}
	if len(Variants()) != 5 {
		t.Error("Variants() should list the 5 elastic variants")
	}
}

func TestParseVariantRoundTrip(t *testing.T) {
	for _, v := range append(Variants(), NoELF) {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	for in, want := range map[string]Variant{
		"uelf": UELF, "U-ELF": UELF, "condelf": CONDELF, "ret-elf": RETELF,
		"IndElf": INDELF, "lelf": LELF, "dcf": NoELF, "NoELF": NoELF, "none": NoELF,
		" u-elf ": UELF,
	} {
		got, err := ParseVariant(in)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "xelf", "variant(?)"} {
		if _, err := ParseVariant(in); err == nil {
			t.Errorf("ParseVariant(%q) accepted", in)
		}
	}
}
