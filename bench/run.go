package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"elfetch/internal/obs"
)

// options are one workload run's inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory, removed after the run
	out      string // span JSON and CPU profiles are kept here
	elfd     string // elfd binary for fleet-cells
	golden   string // internal/eval/testdata/golden_stats.json
}

// minUnits is the fewest measured units a run makes: two, so every sim
// pass can be checked against the first.
const minUnits = 2

// sizes are the workloads' input sizes; the smoke test shrinks them.
type sizes struct {
	setupReps    int     // set-up repetitions behind the setup_s median, at least
	setupMin     float64 // seconds the timed set-ups add up to, at least
	simVariants  int     // generated programs per profile
	simWarmup    uint64  // sim-* instructions per cell
	simMeasure   uint64
	gridWarmup   uint64 // grid-store instructions per cell
	gridMeasure  uint64
	prefill      int // records written into the store before timing
	restarts     int // warm restarts per grid-store round
	fleetWarmup  uint64
	fleetMeasure uint64
}

func defaultSizes() sizes {
	return sizes{
		setupReps:    7,
		setupMin:     0.5,
		simVariants:  6,
		simWarmup:    15_000,
		simMeasure:   45_000,
		gridWarmup:   20_000,
		gridMeasure:  80_000,
		prefill:      5_000,
		restarts:     20,
		fleetWarmup:  2_000,
		fleetMeasure: 8_000,
	}
}

// metricValue is one reported number and the samples behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Pct   float64 `json:"pct,omitempty"` // the percentile a tail metric reports
}

// run accumulates one workload run: its checks, metrics, spans and
// CPU profiles.
type run struct {
	ctx context.Context
	opt options
	sz  sizes

	spans   *obs.SpanLog // nil unless tracing
	profile string       // CPU profile of a traced run

	attempted, failed int
	failures          []string
	values            map[string]metricValue

	itemCost [][2][]float64 // per item: wall seconds [untraced, traced]

	par     int       // CPUs the workload keeps busy; the kernel runs as wide
	refs    []float64 // reference kernel seconds, one per calibration
	lastCal time.Time
}

func newRun(ctx context.Context, opt options, sz sizes, par int) *run {
	r := &run{ctx: ctx, opt: opt, sz: sz, par: par, values: map[string]metricValue{}}
	if opt.trace {
		r.spans = obs.NewSpanLog(1 << 18)
	}
	refKernel(par) // first touch of the kernel's buffer
	r.calibrate()
	return r
}

// check counts one verified output; a false ok is a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// op counts one attempted operation and its error, if any.
func (r *run) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a scalar metric from n samples.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = metricValue{Value: v, N: n}
}

// setPct records the p-th percentile of xs.
func (r *run) setPct(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		r.set(name, 0, 0)
		return
	}
	q1, q3 := quartiles(xs)
	mv := metricValue{Value: percentile(xs, p), N: len(xs), Q1: q1, Q3: q3}
	if p != 50 {
		mv.Pct = p
	}
	r.values[name] = mv
}

// child starts a span under parent; nil when parent is nil, so spans
// exist only inside traced units.
func (r *run) child(parent *obs.Span, name string) *obs.Span {
	if parent == nil {
		return nil
	}
	return r.spans.StartSpan(parent, name)
}

func finish(s *obs.Span) {
	if s != nil {
		s.Finish()
	}
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// repeatSetup runs set-up repetitions, at least sz.setupReps of them and
// until their timed parts add up to sz.setupMin seconds, so that even a
// set-up of a few milliseconds yields a steady setup_s median. rep does
// one repetition and returns the seconds of its timed part; the last
// repetition's state is the one the workload goes on with.
func (r *run) repeatSetup(rep func(i int) (float64, error)) error {
	var secs []float64
	for i := 0; i < r.sz.setupReps || sum(secs) < r.sz.setupMin; i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.maybeCalibrate()
		s, err := rep(i)
		if err != nil {
			return err
		}
		secs = append(secs, s)
	}
	r.setPct("setup_s", secs, 50)
	return nil
}

// units runs measured units (passes, rounds) until the next
// one would overrun the run's time budget, and at least minUnits of
// them. In a traced run the CPU profiler covers every unit.
func (r *run) units(unit func(i int) error) error {
	if r.opt.trace {
		path := filepath.Join(r.opt.out, r.opt.workload+"-cpu.pprof")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		r.profile = path
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	gc0 := gcSeconds()
	start := time.Now()
	var last float64
	for i := 0; ; i++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if i >= minUnits && time.Since(start).Seconds()+last > r.opt.seconds {
			break
		}
		r.maybeCalibrate()
		t := time.Now()
		if err := unit(i); err != nil {
			return err
		}
		last = time.Since(t).Seconds()
	}
	gc1 := gcSeconds()
	r.set("go.gc_cpu_frac", ratio(gc1[0]-gc0[0], gc1[1]-gc0[1]), 1)
	var ratios []float64
	for _, c := range r.itemCost {
		if len(c[0]) > 0 && len(c[1]) > 0 {
			ratios = append(ratios, median(c[1])/median(c[0]))
		}
	}
	if len(ratios) > 0 {
		r.set("trace_overhead_frac", median(ratios)-1, len(ratios))
	}
	return nil
}

// item runs fn as item k (a cell, a restart, a pass) of unit i and
// returns its wall seconds. In a traced run, items alternate between
// traced (under a root span called name) and untraced, flipping each
// unit, so every item is measured both ways and trace_overhead_frac
// compares like with like.
func (r *run) item(i, k int, name string, fn func(root *obs.Span) error) (float64, error) {
	traced := r.opt.trace && (i+k)%2 == 1
	var root *obs.Span
	if traced {
		root = r.spans.StartSpan(nil, name)
	}
	t := time.Now()
	err := fn(root)
	d := time.Since(t).Seconds()
	finish(root)
	if r.opt.trace {
		for len(r.itemCost) <= k {
			r.itemCost = append(r.itemCost, [2][]float64{})
		}
		j := 0
		if traced {
			j = 1
		}
		r.itemCost[k][j] = append(r.itemCost[k][j], d)
	}
	return d, err
}

// gcSeconds reads the runtime's cumulative GC and total CPU seconds.
func gcSeconds() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// report fills in the metrics of the run's kind: every catalogue entry,
// with 0 for a layer the workload never touched. End-to-end host times
// and rates are converted to the reference host's speed (host.go). An
// end-to-end metric that is missing, zero or not finite is a failure of
// the benchmark itself, so it fails the run.
func (r *run) report() map[string]metricValue {
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	k := r.hostScale()
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		mv, ok := r.values[d.Name]
		if !r.opt.trace {
			r.check(ok && mv.Value > 0 && !math.IsInf(mv.Value, 0), "metric %s not measured (%v)", d.Name, mv.Value)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			mv.Value = 0
		}
		switch d.Host {
		case hostTime:
			mv.Value, mv.Q1, mv.Q3 = mv.Value/k, mv.Q1/k, mv.Q3/k
		case hostRate:
			mv.Value, mv.Q1, mv.Q3 = mv.Value*k, mv.Q1*k, mv.Q3*k
		}
		mv.Unit = d.Unit
		out[d.Name] = mv
	}
	return out
}

// names returns the sorted keys of m.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
