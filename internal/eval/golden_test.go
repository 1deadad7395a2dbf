package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/report"
	"elfetch/internal/workload"
)

// updateGolden rewrites the golden equivalence fixtures from the current
// simulator output. Run it ONLY when a PR deliberately changes modeled
// behaviour; performance work must leave these files byte-identical.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden stats fixtures from current simulator output")

const (
	goldenWarmup  = 5_000
	goldenMeasure = 12_000
)

// goldenConfigs covers the four decode paths of the cycle loop: the DCF
// baseline (decoupled decode), NoDCF (coupled-with-inline-prediction),
// U-ELF (elastic with full tracking vectors), and L-ELF (counts-only
// elastic, the uncondChecks consumer).
func goldenConfigs() []pipeline.Config {
	base := pipeline.DefaultConfig()
	return []pipeline.Config{
		base,
		base.NoDCF(),
		base.WithVariant(core.UELF),
		base.WithVariant(core.LELF),
	}
}

// goldenCell is one (workload, config) fingerprint: the full Stats struct,
// so any behavioural drift in the cycle loop — not just IPC — fails.
type goldenCell struct {
	Workload string          `json:"workload"`
	Config   string          `json:"config"`
	Stats    *pipeline.Stats `json:"stats"`
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: simulator output diverged from the golden fixture.\n"+
			"The optimized cycle loop must be byte-identical to the recorded behaviour; "+
			"if this PR deliberately changes modeled behaviour, regenerate with -update-golden.",
			path)
	}
}

// TestGoldenStatsEquivalence pins the cycle loop's observable behaviour:
// every registered workload under every golden config must produce the
// exact *pipeline.Stats recorded before the zero-allocation rework. This
// is the contract that lets the hot loop be restructured freely.
func TestGoldenStatsEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("golden equivalence is a determinism fingerprint; the race build re-runs the same single-goroutine code 10x slower")
	}
	var cells []goldenCell
	for _, e := range workload.All() {
		for _, cfg := range goldenConfigs() {
			cells = append(cells, goldenCell{Workload: e.Name, Config: cfg.Name(), Stats: goldenRun(e, cfg)})
		}
	}
	got, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, filepath.Join("testdata", "golden_stats.json"), got)
}

// goldenRun measures one cell at the golden run lengths.
func goldenRun(e *workload.Entry, cfg pipeline.Config) *pipeline.Stats {
	m := pipeline.MustNew(cfg, e.Program())
	m.Run(goldenWarmup)
	m.ResetStats()
	return m.Run(goldenMeasure)
}

// experimentCell is one registry cell outside the golden configs: the
// first experiment that lists it, its workload, its full config and the
// Stats it produced.
type experimentCell struct {
	Experiment string          `json:"experiment"`
	Workload   string          `json:"workload"`
	Config     pipeline.Config `json:"config"`
	Stats      *pipeline.Stats `json:"stats"`
}

// TestGoldenExperimentCells extends the golden contract to the knobs the
// golden configs leave at their defaults: every distinct (workload,
// config) cell of the experiment registry whose config is not a golden
// config must reproduce its recorded Stats exactly. That covers the
// RET/IND/COND-ELF variants, the ROB-head-wait checkpoint policy,
// Boomerang, coupled zero-bubble, the confidence filter, the knobs the
// ablations turn off, and the FAQ-depth and front-depth sweeps.
func TestGoldenExperimentCells(t *testing.T) {
	if raceEnabled {
		t.Skip("covered by the non-race run; see TestGoldenStatsEquivalence")
	}
	golden := map[pipeline.Config]bool{}
	for _, cfg := range goldenConfigs() {
		golden[cfg] = true
	}
	type key struct {
		workload string
		cfg      pipeline.Config
	}
	seen := map[key]bool{}
	var cells []experimentCell
	for _, name := range ExperimentNames() {
		x, err := LookupExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range x.Cells {
			k := key{c.Workload, c.Config}
			if golden[c.Config] || seen[k] {
				continue
			}
			seen[k] = true
			e, err := workload.Lookup(c.Workload)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, experimentCell{Experiment: name, Workload: c.Workload, Config: c.Config, Stats: goldenRun(e, c.Config)})
		}
	}
	got, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, filepath.Join("testdata", "golden_experiments.json"), got)
}

// TestGoldenFigure6Table pins the rendered Figure 6 table (CSV): the
// figure-regeneration path through MatrixResults and report formatting
// must survive the hot-loop rework byte-for-byte too.
func TestGoldenFigure6Table(t *testing.T) {
	if raceEnabled {
		t.Skip("covered by the non-race run; see TestGoldenStatsEquivalence")
	}
	tab, _, err := RunExperiment(context.Background(), "figure-6", Params{Warmup: goldenWarmup, Measure: goldenMeasure})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf, report.CSV); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_fig6.csv"), buf.Bytes())
}
