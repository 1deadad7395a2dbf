// Command elfd serves the simulator over HTTP/JSON: a
// simulation-as-a-service daemon with a bounded job scheduler and a
// content-addressed result cache, so many clients can drive experiments
// concurrently and repeated requests are answered without re-simulating.
//
// Endpoints:
//
//	POST   /v1/jobs                 submit a run or an experiment (?wait=1 blocks)
//	GET    /v1/jobs/{id}            job status and result
//	GET    /v1/jobs/{id}/trace      Chrome trace JSON of a traced run
//	DELETE /v1/jobs/{id}            cancel a job
//	GET    /v1/workloads            the workload registry
//	GET    /v1/experiments/{name}   run or fetch an experiment (?format=...)
//	POST   /v1/cells                run one evaluation cell (fleet worker endpoint)
//	GET    /v1/healthz              liveness probe for fleet coordinators
//	GET    /metrics                 Prometheus text exposition (fleet view on a coordinator)
//	GET    /debug/stats             scheduler/cache/throughput metrics
//	GET    /debug/events            flight-recorder dump (?n= bounds it)
//	GET    /debug/trace             span log (?format=json|chrome, &canonical=1)
//	GET    /debug/vars              raw expvar dump
//	GET    /debug/pprof/...         Go profiling (with -pprof)
//
// Usage:
//
//	elfd -addr :8080 -workers 8 -queue 128 -job-timeout 5m \
//	     -log-level info -log-format text -pprof
//
// A job's kind is "run" (one workload × one config) or the name of a
// registered experiment (figure-6 … figure-9, btb, ablate, sweep-faq,
// sweep-depth); an experiment job's result is {table, cells}. An untraced
// run of a registered workload is one evaluation cell, run exactly as
// POST /v1/cells runs it.
//
// One pool runs everything: an in-process exec.Local of -workers workers,
// a -queue deep queue and a -cache entry result cache. Jobs, run jobs,
// POST /v1/cells and every experiment's cells are jobs on its scheduler,
// so a cell that several experiments or a POST /v1/cells share is
// simulated once, and -workers bounds every simulation: an experiment job
// hands its worker back while it waits on its cells, and at most -workers
// experiment jobs run at once. -queue refuses client jobs beyond it;
// experiment cells share the queue but are never refused (see
// sched.Scheduler.Submit). In coordinator mode the experiment cells go
// through the Fleet instead, with that Local as its fallback.
//
// Coordinator mode: -fleet http://w1:8080,http://w2:8080 shards every
// experiment job's cells across the listed elfd workers (each serving
// POST /v1/cells), falling back to local execution when the whole fleet
// is unreachable. The coordinator also federates worker metrics (scraped
// every -federate-interval) into its own /metrics and stitches every
// dispatch into a distributed trace on /debug/trace. See DESIGN.md §13
// and §14.
//
// Persistent store: -store-dir DIR keeps cell results on disk, so a
// restarted elfd answers previously simulated cells without re-running
// them; -store-max-bytes bounds it. POST /v1/cells, run jobs of
// registered workloads and experiment cells all consult the store behind
// the scheduler cache; a coordinator consults it before dispatching. See
// DESIGN.md §15.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/store"
)

// newBackend builds the one pool of a server wired with opt, and the
// backend its experiments' cells run through (see exec.NewBackend). The
// pool is an exec.Local sized by cfg, which also carries the store:
// newServer submits the server's jobs to its scheduler, and the Local runs
// cells there too. It shares opt's registry, flight recorder and span log,
// and its probe feeds the server's elf_* histograms (NewProbe is
// idempotent per registry).
func newBackend(opt serverOptions, addrs []string, cfg exec.LocalConfig) (*exec.Local, exec.Backend, error) {
	cfg.Metrics, cfg.Probe, cfg.Events = opt.Metrics, eval.NewProbe(opt.Metrics), opt.Events
	return exec.NewBackend(addrs, cfg, opt.Spans)
}

// buildLogger assembles the process logger from the CLI flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulations run at once (0 = GOMAXPROCS); one pool runs jobs and experiment cells alike")
	queue := flag.Int("queue", 128, "max queued client jobs before submits fail fast; experiment cells queue too but are never refused")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job runtime ceiling, each experiment cell included (0 = none)")
	cacheSize := flag.Int("cache", 512, "result cache entries, shared by jobs, cells and experiment cells")
	warmup := flag.Uint64("warmup", eval.DefaultParams().Warmup, "default warmup instructions per run")
	insts := flag.Uint64("insts", eval.DefaultParams().Measure, "default measured instructions per run")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	pprofOn := flag.Bool("pprof", false, "serve Go profiling under /debug/pprof/")
	fleet := flag.String("fleet", "", "comma-separated worker base URLs; shard experiment cells across them (coordinator mode)")
	federateInterval := flag.Duration("federate-interval", 10*time.Second, "coordinator scrape cadence for worker /metrics federation")
	slowCellMS := flag.Int("slow-cell-ms", 0, "record a slow_cell flight-recorder event for cells slower than this (0 = off)")
	eventsSize := flag.Int("events", 0, "flight-recorder ring size (0 = 4096)")
	storeDir := flag.String("store-dir", "", "persistent result store directory (empty = no store); restarts answer stored cells without re-simulating")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "persistent store quota in bytes (0 = 1 GiB); compaction evicts oldest entries beyond it")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elfd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	defaults := eval.Params{Warmup: *warmup, Measure: *insts}
	if err := defaults.Validate(); err != nil {
		logger.Error("bad default params", "err", err)
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	// Flight recorder and span log: shared between the HTTP surface
	// (/debug/events, /debug/trace) and the execution backend. The span
	// log is seeded so this process's traces are distinguishable from
	// other coordinators'.
	events := obs.NewRing(*eventsSize)
	spans := obs.NewSpanLog(0)
	spans.Seed(uint64(time.Now().UnixNano()))
	slowCell := time.Duration(*slowCellMS) * time.Millisecond

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var st store.Store // nil without -store-dir
	if *storeDir != "" {
		d, err := store.Open(store.DiskConfig{Dir: *storeDir, MaxBytes: *storeMaxBytes,
			Metrics: reg, Events: events, Logger: logger})
		if err != nil {
			logger.Error("store setup", "err", err)
			os.Exit(2)
		}
		defer d.Close()
		logger.Info("persistent store", "dir", *storeDir)
		st = d
	}

	opt := serverOptions{Metrics: reg, Logger: logger, Pprof: *pprofOn,
		Events: events, Spans: spans}
	addrs := exec.SplitWorkers(*fleet)
	local, backend, err := newBackend(opt, addrs, exec.LocalConfig{Workers: *workers,
		QueueDepth: *queue, JobTimeout: *jobTimeout, CacheSize: *cacheSize, SlowCell: slowCell, Store: st})
	if err != nil {
		logger.Error("fleet setup", "err", err)
		os.Exit(2)
	}
	defer backend.Close()
	opt.Backend = backend
	if len(addrs) > 0 {
		// Metrics federation: periodically scrape every worker's /metrics
		// so this coordinator's /metrics serves the merged fleet view.
		fed := obs.NewFederation(obs.FederationConfig{Workers: addrs, Metrics: reg})
		opt.Federation = fed
		go func() {
			fed.Scrape(ctx)
			t := time.NewTicker(*federateInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					fed.Scrape(ctx)
				}
			}
		}()
		logger.Info("coordinator mode", "fleet", addrs, "federate", *federateInterval)
	}
	srv := &http.Server{Addr: *addr, Handler: newServer(local, defaults, opt)}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", local.Scheduler().Stats().Workers,
		"queue", *queue, "pprof", *pprofOn)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
		// Drain before the deferred Close: a coordinator's experiment
		// jobs need the Fleet open until they finish.
		if err := local.Scheduler().Shutdown(shutdownCtx); err != nil {
			logger.Error("scheduler shutdown", "err", err)
		}
	}
}
