package pipeline

import (
	"testing"

	"elfetch/internal/workload"
)

// TestStallWakeCoversEachFullQueue pins the reach of the stall skip: a
// window held still by a full ROB, a full issue queue or a full
// load/store queue must each let RunContext skip (TestRunMatchesStepping
// checks that the skips are exact, not that they happen). Each case
// shrinks one of the three on the memory-bound proxy under NoDCF, steps
// it, and counts the cycles after which stallWake lies ahead of the clock
// while only that queue is full.
func TestStallWakeCoversEachFullQueue(t *testing.T) {
	e, err := workload.Lookup("605.mcf_s")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		rob, iq, lsq    int
		robFull, iqFull bool
	}{
		{"ROB", 64, 128, 128, true, false},
		{"IQ", 256, 16, 128, false, true},
		{"LSQ", 256, 128, 8, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig().NoDCF()
			cfg.Backend.ROB, cfg.Backend.IQ, cfg.Backend.LSQ = tc.rob, tc.iq, tc.lsq
			m := MustNew(cfg, e.Program())
			m.Run(5_000)
			const cycles = 20_000
			stalled := 0
			for range cycles {
				m.Cycle()
				if m.stallWake(^uint64(0)) > m.now &&
					m.be.ROBFull() == tc.robFull && (m.be.IQCount() >= tc.iq) == tc.iqFull {
					stalled++
				}
			}
			// About 90% at this commit; a clause that stops matching
			// drops its case to near 0.
			if stalled < cycles/2 {
				t.Errorf("stallWake skips after %d of %d cycles with only the %s full, want at least half", stalled, cycles, tc.name)
			}
		})
	}
}
