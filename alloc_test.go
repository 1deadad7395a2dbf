package elfetch

import (
	"context"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// TestSteadyStateZeroAllocs is the hot-loop memory-discipline contract
// (DESIGN.md §17): after warmup, the cycle loop must not allocate. Every
// per-cycle structure — fetch groups and their uops, the rename queue,
// pending resolutions, prefetches, wheel buckets — is pooled or ring-backed
// and sized from the configuration, so steady state recycles instead of
// growing. testing.AllocsPerRun averages over enough cycles that a rare
// one-off growth event (a cold structure reaching its high-water mark
// late) would still need ~100 allocations to register as nonzero. The
// memory-bound cases drive RunContext in 100-instruction chunks instead
// of stepping Cycle, so the window-stall skip (which they take on most of
// their cycles) must allocate nothing either.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config steady-state run")
	}
	base := pipeline.DefaultConfig()
	cases := []struct {
		name     string
		workload string
		cfg      pipeline.Config
		run      bool // RunContext chunks instead of single cycles
	}{
		// The four decode paths of the cycle loop, plus the FAQ-prefetch
		// machinery on the server workload.
		{"dcf", "641.leela_s", base, false},
		{"nodcf", "641.leela_s", base.NoDCF(), false},
		{"uelf", "641.leela_s", base.WithVariant(core.UELF), false},
		{"lelf", "620.omnetpp_s", base.WithVariant(core.LELF), false},
		{"prefetch", "server1_subtest_1", base, false},
		{"mcf-dcf-run", "605.mcf_s", base, true},
		{"mcf-nodcf-run", "605.mcf_s", base.NoDCF(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := workload.Lookup(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			m := pipeline.MustNew(tc.cfg, e.Program())
			m.Run(30_000) // reach steady state: pools primed, rings at depth
			runs, unit, step := 100_000, "cycle", m.Cycle
			if tc.run {
				runs, unit = 1_000, "100-instruction run"
				step = func() {
					if _, err := m.RunContext(context.Background(), 100); err != nil {
						t.Fatal(err)
					}
				}
			}
			if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
				t.Errorf("%s/%s: %.2f allocs per %s in steady state, want 0",
					tc.workload, tc.cfg.Name(), allocs, unit)
			}
		})
	}
}
