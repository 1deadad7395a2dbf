package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. Every workload reports every
// metric of its kind; a per-layer metric whose layer a workload does not
// exercise reads 0 there (README.md lists which workload moves which).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Host   int    // hostTime or hostRate: reported at the reference host's speed
}

const (
	hostTime = 1
	hostRate = 2
)

// endToEnd are the user-visible metrics, reported by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", hostTime},
	{"sim_minsts_per_s", "Minst/s", "higher", hostRate},
	{"cells_per_s", "1/s", "higher", hostRate},
	{"cell_ms_p50", "ms", "lower", hostTime},
	{"cell_ms_tail", "ms", "lower", hostTime},
	{"rss_peak_mb", "MB", "lower", 0},
}

// Stage names: the frame directly under pipeline.(*Machine).Cycle in a
// CPU-profile stack, keyed by function name.
var stageOf = map[string]string{
	"elfetch/internal/pipeline.(*Machine).handleResolutions": "resolutions",
	"elfetch/internal/backend.(*Backend).Commit":             "commit",
	"elfetch/internal/pipeline.(*Machine).retire":            "retire",
	"elfetch/internal/backend.(*Backend).Cycle":              "backend",
	"elfetch/internal/pipeline.(*Machine).rename":            "rename",
	"elfetch/internal/pipeline.(*Machine).decode":            "decode",
	"elfetch/internal/pipeline.(*Machine).fetch":             "fetch",
	"elfetch/internal/frontend.(*DCF).Cycle":                 "dcf",
	"elfetch/internal/pipeline.(*Machine).resyncStep":        "resync",
	"elfetch/internal/pipeline.(*Machine).prefetchStep":      "prefetch",
	"elfetch/internal/pipeline.(*Machine).watchdog":          "watchdog",
}

var stages = []string{"resolutions", "commit", "retire", "backend", "rename",
	"decode", "fetch", "dcf", "resync", "prefetch", "watchdog", "other"}

// pkgs are the self-time buckets of the benchmark process's CPU profile;
// duffcopy is the slice of runtime spent in struct value copies.
var pkgs = []string{"backend", "pipeline", "btb", "bpred", "cache", "frontend",
	"core", "trace", "ringq", "runtime", "duffcopy", "json", "net", "syscall",
	"sched", "store", "other"}

// selfSpans are the span names whose self time (duration minus the part
// covered by child spans) is reported as a share of root-span time.
var selfSpans = []string{"cell", "pipeline.new", "pipeline.warmup",
	"pipeline.measure", "grid", "exec.local.run", "store.get", "store.put",
	"store.open", "exec.fleet.run"}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	d := []metricDef{
		{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
		{Name: "pipeline.new_ms", Unit: "ms", Better: "lower"},
		{Name: "pipeline.warmup_ms", Unit: "ms", Better: "lower"},
		{Name: "pipeline.measure_ms", Unit: "ms", Better: "lower"},
		{Name: "pipeline.host_ns_per_cycle", Unit: "ns", Better: "lower"},
		{Name: "pipeline.allocs_per_kcycle", Unit: "1/kcycle", Better: "lower"},
		{Name: "pipeline.bytes_per_kcycle", Unit: "B/kcycle", Better: "lower"},
	}
	for _, s := range stages {
		d = append(d, metricDef{Name: "stage." + s, Unit: "frac", Better: "lower"})
	}
	for _, p := range pkgs {
		d = append(d, metricDef{Name: "pkg." + p, Unit: "frac", Better: "lower"})
	}
	d = append(d, []metricDef{
		{Name: "btb.l0_hit", Unit: "frac", Better: "higher"},
		{Name: "btb.l1_hit", Unit: "frac", Better: "higher"},
		{Name: "btb.l2_hit", Unit: "frac", Better: "higher"},
		{Name: "front.resteers_pki", Unit: "1/kinst", Better: "lower"},
		{Name: "front.taken_bubbles_pki", Unit: "1/kinst", Better: "lower"},
		{Name: "front.wrong_path_frac", Unit: "frac", Better: "lower"},
		{Name: "front.faq_empty_frac", Unit: "frac", Better: "lower"},
		{Name: "front.fetch_busy_frac", Unit: "frac", Better: "lower"},
		{Name: "bpred.cond_mpki", Unit: "1/kinst", Better: "lower"},
		{Name: "bpred.ind_mpki", Unit: "1/kinst", Better: "lower"},
		{Name: "cache.l1i_miss", Unit: "frac", Better: "lower"},
		{Name: "cache.l1d_miss", Unit: "frac", Better: "lower"},
		{Name: "cache.iprefetch_pki", Unit: "1/kinst", Better: "lower"},
		{Name: "cache.mshr_queued_pki", Unit: "1/kinst", Better: "lower"},
		{Name: "elf.coupled_frac", Unit: "frac", Better: "higher"},
		{Name: "elf.avg_coupled_insts", Unit: "inst", Better: "higher"},
		{Name: "elf.watchdog_pmi", Unit: "1/Minst", Better: "lower"},
		{Name: "backend.ipc", Unit: "inst/cycle", Better: "higher"},
		{Name: "backend.memorder_flush_pki", Unit: "1/kinst", Better: "lower"},
		{Name: "eval.slot_idle_frac", Unit: "frac", Better: "lower"},
		{Name: "sched.task_ms_mean", Unit: "ms", Better: "lower"},
		{Name: "sched.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
		{Name: "sched.queue_high_water", Unit: "count", Better: "lower"},
		{Name: "sched.key_us", Unit: "us", Better: "lower"},
		{Name: "store.put_us_p50", Unit: "us", Better: "lower"},
		{Name: "store.put_us_tail", Unit: "us", Better: "lower"},
		{Name: "store.get_us_p50", Unit: "us", Better: "lower"},
		{Name: "store.open_ms", Unit: "ms", Better: "lower"},
		{Name: "store.bytes_per_cell", Unit: "B", Better: "lower"},
		{Name: "restart.decode_us_p50", Unit: "us", Better: "lower"},
		{Name: "restart.cells_per_s", Unit: "1/s", Better: "higher"},
		{Name: "fleet.hop_ms_mean", Unit: "ms", Better: "lower"},
		{Name: "fleet.retried", Unit: "count", Better: "lower"},
		{Name: "fleet.fallback", Unit: "count", Better: "lower"},
		{Name: "elfd.cache_hit_ratio", Unit: "frac", Better: "higher"},
		{Name: "elfd.task_ms_mean", Unit: "ms", Better: "lower"},
		{Name: "elfd.rss_kb_per_kreq", Unit: "KB", Better: "lower"},
		{Name: "elfd.rss_mb", Unit: "MB", Better: "lower"},
		{Name: "worker.json_frac", Unit: "frac", Better: "lower"},
		{Name: "worker.http_frac", Unit: "frac", Better: "lower"},
		{Name: "worker.sched_frac", Unit: "frac", Better: "lower"},
		{Name: "worker.gc_frac", Unit: "frac", Better: "lower"},
		{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "host.ref_ms", Unit: "ms", Better: "lower"},
		{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
	}...)
	for _, s := range selfSpans {
		d = append(d, metricDef{Name: "self." + s, Unit: "frac", Better: "lower"})
	}
	return d
}()

// spec is the part of BENCHMARK.json the benchmark itself reads: the
// metric catalogue and the regression bounds -compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
