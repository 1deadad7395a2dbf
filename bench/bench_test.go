package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"elfetch/internal/obs"
)

const testGolden = "../" + goldenPath

// tinySizes shrinks every workload so all four run in seconds.
func tinySizes() sizes {
	return sizes{
		setupReps:    1,
		simVariants:  1,
		simWarmup:    2_000,
		simMeasure:   5_000,
		gridWarmup:   2_000,
		gridMeasure:  5_000,
		prefill:      50,
		restarts:     2,
		fleetWarmup:  1_000,
		fleetMeasure: 2_000,
	}
}

// buildElfd compiles the worker the fleet-cells workload starts.
func buildElfd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "elfd")
	out, err := osexec.Command("go", "build", "-o", bin, "elfetch/cmd/elfd").CombinedOutput()
	if err != nil {
		t.Fatalf("building elfd: %v\n%s", err, out)
	}
	return bin
}

func tinyRun(t *testing.T, workload string, trace bool, elfd, golden string) *record {
	t.Helper()
	work := t.TempDir()
	opt := options{workload: workload, seed: 7, trace: trace, elfd: elfd, golden: golden,
		out: filepath.Join(work, "out")}
	rec, err := measure(context.Background(), opt, tinySizes(), work)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return rec
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks that each emits every metric BENCHMARK.json names, with its
// unit and sample count, and that every output check passed.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	elfd := buildElfd(t)
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			rec := tinyRun(t, w.Name, trace, elfd, testGolden)
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			want := map[string]string{}
			if trace {
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rec.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				case !trace && (m.N < 1 || m.Value <= 0):
					t.Errorf("%s: %s = %v from %d samples", w.Name, name, m.Value, m.N)
				}
			}
		}
	}
}

// TestGoldenCorruptionCounted flips one recorded golden value and checks
// the mismatch is counted as a failed operation.
func TestGoldenCorruptionCounted(t *testing.T) {
	b, err := os.ReadFile(testGolden)
	if err != nil {
		t.Fatal(err)
	}
	var cells []map[string]any
	if err := json.Unmarshal(b, &cells); err != nil {
		t.Fatal(err)
	}
	hit := false
	for _, c := range cells {
		if c["workload"] == "641.leela_s" && c["config"] == "U-ELF" {
			st := c["stats"].(map[string]any)
			st["Cycles"] = st["Cycles"].(float64) + 1
			hit = true
		}
	}
	if !hit {
		t.Fatal("fixture has no 641.leela_s/U-ELF cell")
	}
	bad := filepath.Join(t.TempDir(), "golden.json")
	b, err = json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := tinyRun(t, "sim-frontend", false, "", bad)
	if rec.Correct || rec.Failed != 1 {
		t.Fatalf("corrupted golden: correct=%v failed=%d, want one failure", rec.Correct, rec.Failed)
	}
	if !strings.Contains(strings.Join(rec.Failures, "\n"), "641.leela_s/U-ELF") {
		t.Errorf("failure does not name the corrupted cell: %v", rec.Failures)
	}
}

// TestCatalogueMatchesSpec keeps BENCHMARK.json and the metric tables in
// this package in step.
func TestCatalogueMatchesSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d",
			len(sp.EndToEnd), len(sp.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range sp.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range sp.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	id := func(b byte) obs.SpanID { return obs.SpanID{7: b} }
	spans := []obs.Span{
		{ID: id(1), Name: "root", Start: at(0), End: at(100)},
		{ID: id(2), Parent: id(1), Name: "a", Start: at(10), End: at(60)},
		{ID: id(3), Parent: id(1), Name: "a", Start: at(40), End: at(90)}, // overlaps its sibling
		{ID: id(4), Parent: id(2), Name: "b", Start: at(20), End: at(30)},
	}
	self, total := selfTimes(spans)
	for name, want := range map[string]float64{"root": 0.020, "a": 0.090, "b": 0.010} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if math.Abs(total-0.1) > 1e-9 {
		t.Errorf("total = %v, want 0.1", total)
	}
}

// TestReadProfile decodes a real CPU profile of a busy loop and finds the
// loop's function in it.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				found = true
			}
		}
	}
	if len(samples) == 0 || !found {
		t.Fatalf("%d samples, spin found: %v", len(samples), found)
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*31 + uint64(i)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	worse := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	if v, _ := verdict(a, worse, "lower", 0.1); !strings.HasPrefix(v, "REGRESSED") {
		t.Errorf("30%% slower, bound 10%%: %s", v)
	}
	if v, _ := verdict(a, a, "lower", 0.1); v != "within bound" {
		t.Errorf("same runs: %s", v)
	}
	if v, win := verdict(a, worse, "higher", 0.1); v != "improved" || win != 1 {
		t.Errorf("30%% higher, higher is better: %s (wins %v)", v, win)
	}
}
