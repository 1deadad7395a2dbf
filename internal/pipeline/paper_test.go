package pipeline

import (
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/program"
	"elfetch/internal/uop"
	"elfetch/internal/workload"
)

// TestFigure3MispredictPenalty checks the paper's Figure 3 claim: the DCF
// pays BPredToFetch extra cycles on every branch misprediction relative to
// a coupled restart, and ELF hides (most of) that difference.
//
// The kernel is all-sequential except one coin-flip branch whose both
// arms rejoin immediately, so per-flush costs dominate the cycle deltas.
func TestFigure3MispredictPenalty(t *testing.T) {
	b := program.NewBuilder(0x10000)
	f := b.Func("main")
	loop := f.Block("loop")
	loop.Nop(10)
	loop.CondTo(program.Bernoulli{P: 0.5, Salt: 99}, "alt")
	loop.Nop(8)
	loop.JumpTo("loop")
	f.Block("alt").Nop(8).JumpTo("loop")
	p, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}

	run := func(cfg Config) *Stats {
		m := MustNew(cfg, p)
		m.Run(100_000)
		m.ResetStats()
		return m.Run(400_000)
	}
	base := DefaultConfig()
	dcf := run(base)
	uelf := run(base.WithVariant(core.UELF))

	flushes := float64(dcf.Flushes[uop.FlushBranch])
	if flushes < 1000 {
		t.Fatalf("kernel produced too few flushes: %v", flushes)
	}
	// Cycles saved per flush by ELF's coupled restart: positive, and not
	// more than the full front-depth plus taken-bubble effects.
	perFlush := (float64(dcf.Cycles) - float64(uelf.Cycles)) / flushes
	if perFlush <= 0 {
		t.Errorf("ELF saved %.2f cycles/flush — expected a positive saving", perFlush)
	}
	if perFlush > 8 {
		t.Errorf("ELF saved %.2f cycles/flush — exceeds the %d-cycle depth it can hide",
			perFlush, base.BPredToFetch)
	}
}

// TestCoupledPeriodInstrumentation checks the Figure 8 secondary metric is
// produced and plausible: the average coupled instructions per period is
// positive and bounded by the tracking capacity regime.
func TestCoupledPeriodInstrumentation(t *testing.T) {
	b := program.NewBuilder(0x10000)
	f := b.Func("main")
	loop := f.Block("loop")
	loop.Nop(8)
	loop.CondTo(program.Bernoulli{P: 0.5, Salt: 7}, "alt")
	loop.Nop(4)
	loop.JumpTo("loop")
	f.Block("alt").Nop(4).JumpTo("loop")
	p, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range core.Variants() {
		m := MustNew(DefaultConfig().WithVariant(v), p)
		m.Run(150_000)
		elf := m.ELF()
		if elf.Periods == 0 {
			t.Errorf("%v: no coupled periods", v)
			continue
		}
		avg := elf.AvgCoupledInsts()
		if avg <= 0 || avg > 3*core.TrackCap {
			t.Errorf("%v: avg coupled insts/period = %v", v, avg)
		}
	}
}

// TestCaseTwoBOvershootSquashCounted checks that the Section IV-B1 case-2b
// squash is counted where the machine performs it: L-ELF fetches blindly
// past control decisions, so on a branchy workload decode stalls at some
// of them with an overshoot behind, and each such stall counts one
// overshoot squash. Like the other ELF counters it covers only the
// measured region.
func TestCaseTwoBOvershootSquashCounted(t *testing.T) {
	m := mustWorkloadMachine(t, DefaultConfig().WithVariant(core.LELF), "641.leela_s")
	m.Run(20_000)
	m.ResetStats()
	if n := m.ELF().OvershootSquashes; n != 0 {
		t.Fatalf("ResetStats left %d overshoot squashes", n)
	}
	m.Run(100_000)
	if elf := m.ELF(); elf.OvershootSquashes == 0 {
		t.Errorf("no overshoot squashes in %d coupled periods", elf.Periods)
	}
}

// TestWatchdogRateNegligible bounds the residual recovery-interaction rate:
// forced restarts must stay far below one per thousand committed
// instructions on a hostile workload mix.
func TestWatchdogRateNegligible(t *testing.T) {
	names := []string{"641.leela_s", "620.omnetpp_s", "server1_subtest_1", "401.bzip2"}
	for _, v := range []core.Variant{core.LELF, core.UELF, core.CONDELF} {
		for _, n := range names {
			m := mustWorkloadMachine(t, DefaultConfig().WithVariant(v), n)
			st := m.Run(150_000)
			rate := float64(st.WatchdogRecoveries) / float64(st.Committed) * 1000
			if rate > 1.0 {
				t.Errorf("%v/%s: %.2f watchdog recoveries per kilo-inst (%d total)",
					v, n, rate, st.WatchdogRecoveries)
			}
		}
	}
}

// TestCheckpointPolicyOrdering: waiting at the ROB head can never be faster
// than late binding (it strictly delays flushes).
func TestCheckpointPolicyOrdering(t *testing.T) {
	cfgLate := DefaultConfig().WithVariant(core.UELF)
	cfgWait := cfgLate
	cfgWait.Ckpt = CkptROBHeadWait

	late := mustWorkloadMachine(t, cfgLate, "641.leela_s").Run(200_000)
	wait := mustWorkloadMachine(t, cfgWait, "641.leela_s").Run(200_000)
	if wait.CkptDeferredCycles < late.CkptDeferredCycles {
		t.Errorf("ROB-head-wait deferred %d < late-bind %d",
			wait.CkptDeferredCycles, late.CkptDeferredCycles)
	}
	// IPC ordering holds within noise.
	if wait.IPC() > late.IPC()*1.02 {
		t.Errorf("ROB-head-wait IPC %.3f clearly beats late-bind %.3f", wait.IPC(), late.IPC())
	}
}

// TestPrefetchAblation: disabling FAQ prefetch must hurt a huge-I-footprint
// workload and leave a cache-resident one untouched.
func TestPrefetchAblation(t *testing.T) {
	on := DefaultConfig()
	off := on
	off.FAQPrefetch = false

	srvOn := mustWorkloadMachine(t, on, "server1_subtest_1").Run(200_000)
	srvOff := mustWorkloadMachine(t, off, "server1_subtest_1").Run(200_000)
	if srvOn.IPC() <= srvOff.IPC() {
		t.Errorf("prefetch off faster on server1: %.3f vs %.3f", srvOff.IPC(), srvOn.IPC())
	}

	smallOn := mustWorkloadMachine(t, on, "648.exchange2_s").Run(150_000)
	smallOff := mustWorkloadMachine(t, off, "648.exchange2_s").Run(150_000)
	ratio := smallOn.IPC() / smallOff.IPC()
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("prefetch changed a cache-resident workload by %.1f%%", 100*(ratio-1))
	}
}

func mustWorkloadMachine(t *testing.T, cfg Config, name string) *Machine {
	t.Helper()
	m, err := newWorkloadMachine(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newWorkloadMachine(cfg Config, name string) (*Machine, error) {
	e, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	return New(cfg, e.Program())
}
