package eval

import (
	"context"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// TestRunOneDeterministic is the runtime twin of elflint's static
// determinism check: two RunOne invocations of the same Params must
// produce identical stat tables, bit for bit. The paper's L-ELF/U-ELF
// deltas (and elfd's content-addressed result cache) are only meaningful
// if replays are exact.
func TestRunOneDeterministic(t *testing.T) {
	entries := workload.All()
	if len(entries) == 0 {
		t.Fatal("empty workload registry")
	}
	e := entries[0]
	p := Params{Warmup: 20_000, Measure: 100_000}
	base := pipeline.DefaultConfig()
	cfgs := []pipeline.Config{
		base,
		base.NoDCF(),
		base.WithVariant(core.LELF),
		base.WithVariant(core.UELF),
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			first, err := RunOne(context.Background(), e, cfg, p, nil)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := RunOne(context.Background(), e, cfg, p, nil)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if first != second {
				t.Errorf("replay diverged for %s on %s:\n first: %+v\nsecond: %+v",
					cfg.Name(), e.Name, first, second)
			}
		})
	}
}

// TestRunOneDeterministicWithProbe re-runs one config with a probe
// attached and requires the architectural results to match the unprobed
// run exactly — the contract the probegate lint check protects.
func TestRunOneDeterministicWithProbe(t *testing.T) {
	entries := workload.All()
	if len(entries) == 0 {
		t.Fatal("empty workload registry")
	}
	e := entries[0]
	cfg := pipeline.DefaultConfig()
	plain := Params{Warmup: 20_000, Measure: 100_000}
	probed := plain
	probed.Probe = NewProbe(obs.NewRegistry())

	bare, err := RunOne(context.Background(), e, cfg, plain, nil)
	if err != nil {
		t.Fatalf("unprobed run: %v", err)
	}
	obs, err := RunOne(context.Background(), e, cfg, probed, nil)
	if err != nil {
		t.Fatalf("probed run: %v", err)
	}
	if bare != obs {
		t.Errorf("probe attachment perturbed the run:\nunprobed: %+v\n  probed: %+v", bare, obs)
	}
}
