package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// elfd is one elfd worker subprocess.
type elfd struct {
	cmd  *osexec.Cmd
	addr string // base URL
	pid  string
	done chan error // receives cmd.Wait's result once
	log  *os.File
}

// startElfd starts an elfd worker on a free loopback port with one
// simulation worker on one OS thread, and waits until it answers its
// health check.
func startElfd(ctx context.Context, bin, logPath string) (*elfd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hostport := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(bin, "-addr", hostport, "-workers", "1", "-log-level", "warn", "-pprof")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The worker must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	w := &elfd{cmd: cmd, addr: "http://" + hostport, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan error, 1), log: logf}
	go func() { w.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(w.addr + "/v1/healthz")
		if err == nil {
			obs.DrainClose(resp.Body)
			if resp.StatusCode == http.StatusOK {
				return w, nil
			}
		}
		select {
		case err := <-w.done:
			w.log.Close()
			out, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("elfd exited before becoming healthy (%v): %s", err, tail(out, 2048))
		case <-ctx.Done():
			w.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			w.stop()
			out, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("elfd not healthy after 20s: %s", tail(out, 2048))
		}
	}
}

// tail returns the last n bytes of b as text.
func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// stop terminates the worker and waits for it: SIGTERM, then SIGKILL if
// it has not exited within ten seconds.
func (w *elfd) stop() {
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.done
	}
	w.log.Close()
}

// elfdStats is the part of elfd's /debug/stats the benchmark reads.
type elfdStats struct {
	CacheHitRate float64 `json:"cacheHitRate"`
	Scheduler    struct {
		Completed   uint64  `json:"completed"`
		TaskSeconds float64 `json:"taskSeconds"`
		Cache       struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
	} `json:"scheduler"`
}

func (w *elfd) stats() (elfdStats, error) {
	var s elfdStats
	resp, err := http.Get(w.addr + "/debug/stats")
	if err != nil {
		return s, err
	}
	defer obs.DrainClose(resp.Body)
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// requests reads elfd_http_requests_total{code="2xx"} from /metrics.
func (w *elfd) requests() (float64, error) {
	resp, err := http.Get(w.addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer obs.DrainClose(resp.Body)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), `elfd_http_requests_total{code="2xx"} `); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("elfd /metrics: no elfd_http_requests_total{code=\"2xx\"}")
}

// profile fetches a CPU profile of the worker over secs seconds into path.
func (w *elfd) profile(path string, secs int) error {
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", w.addr, secs))
	if err != nil {
		return err
	}
	defer obs.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("elfd profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// freshPasses is the number of uncached grids sim_minsts_per_s is timed on.
const freshPasses = 3

// fleetGrid runs the grid once through exec.Fleet, measure instructions
// a cell, and returns results, Fleet.Run latencies and wall seconds.
func fleetGrid(r *run, parent *obs.Span, timer *cellTimer, entries []*workload.Entry, cfgs []pipeline.Config, measure uint64) (eval.Results, []float64, float64, error) {
	ctx := r.ctx
	gs := r.child(parent, "grid")
	if gs != nil {
		ctx = obs.ContextWithSpan(ctx, gs)
	}
	p := eval.Params{Warmup: r.sz.fleetWarmup, Measure: measure, Parallel: 2, Runner: timer}
	t := time.Now()
	res, err := eval.MatrixResults(ctx, entries, cfgs, p)
	wall := time.Since(t).Seconds()
	finish(gs)
	return res, timer.take(), wall, err
}

func runFleet(r *run) error {
	entries, cfgs, err := figureGrid(r.opt.seed)
	if err != nil {
		return err
	}
	n := len(entries) * len(cfgs)
	var (
		w    *elfd
		f    *exec.Fleet
		reg  *obs.Registry
		cold eval.Results
	)
	closeAll := func() {
		if f != nil {
			f.Close()
			f = nil
		}
		if w != nil {
			w.stop()
			w = nil
		}
	}
	defer closeAll()
	// Set-up is start-to-healthy plus the cold pass that fills the
	// worker's cache; the last repetition's worker serves the rest.
	err = r.repeatSetup(func(rep int) (float64, error) {
		closeAll()
		t0 := time.Now()
		var err error
		if w, err = startElfd(r.ctx, r.opt.elfd, filepath.Join(r.opt.dir, fmt.Sprintf("elfd-%d.log", rep))); err != nil {
			return 0, err
		}
		reg = obs.NewRegistry()
		f, err = exec.NewFleet(exec.FleetConfig{
			Workers: []string{w.addr},
			// Two cells in flight, two connections: the load fits the
			// benchmark host's two CPUs.
			Client:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
			Metrics: reg,
		})
		if err != nil {
			return 0, err
		}
		cold, _, _, err = fleetGrid(r, nil, &cellTimer{r: r, next: f, name: "exec.fleet.run"}, entries, cfgs, r.sz.fleetMeasure)
		if err != nil {
			return 0, fmt.Errorf("cold fleet grid: %w", err)
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	r.check(len(cold) == n, "cold fleet grid: %d of %d cells", len(cold), n)
	r.setPct("workload.gen_ms", scale(genFigurePrograms(entries), 1e3), 50)
	_, keys := cellKeys(entries, cfgs, eval.Params{Warmup: r.sz.fleetWarmup, Measure: r.sz.fleetMeasure})

	// The fleet must answer exactly what an in-process run computes.
	for _, cr := range cold {
		want, err := eval.RunCell(r.ctx, cr.Cell, nil)
		r.op(err, "reference cell "+cr.Cell.Workload)
		if err == nil {
			r.check(want == cr.Result, "fleet cell %s/%s differs from eval.RunCell", cr.Cell.Workload, cr.Cell.Config.Name())
		}
	}

	// Simulation through the fleet is timed on the warm worker, over grids
	// of fresh lengths it has not cached: each cold fill starts a new
	// process and is too short to time steadily.
	timer := &cellTimer{r: r, next: f, name: "exec.fleet.run"}
	var insts, freshS float64
	for j := 1; j <= freshPasses; j++ {
		res, _, wall, err := fleetGrid(r, nil, timer, entries, cfgs, r.sz.fleetMeasure+uint64(j))
		r.op(err, "fresh fleet grid")
		if err != nil {
			continue
		}
		r.check(len(res) == n, "fresh fleet grid: %d of %d cells", len(res), n)
		for _, cr := range res {
			insts += float64(cr.Cell.Warmup + cr.Result.Committed)
		}
		freshS += wall
	}
	r.set("sim_minsts_per_s", ratio(insts, freshS)/1e6, freshPasses)
	want, err := json.Marshal(cold)
	if err != nil {
		return err
	}
	st0, err := w.stats()
	if err != nil {
		return err
	}
	r.check(st0.Scheduler.Completed == uint64(n*(1+freshPasses)),
		"worker simulated %d cells for %d %d-cell grids", st0.Scheduler.Completed, 1+freshPasses, n)
	req0, err := w.requests()
	if err != nil {
		return err
	}
	rss0, err := procKB(w.pid, "VmRSS")
	if err != nil {
		return err
	}
	hop := reg.Histogram("elf_exec_hop_seconds", "", nil, obs.L("outcome", "ok"))
	hopSum0, hopN0 := hop.Sum(), hop.Count()

	var (
		lat, rate, slotIdle []float64
		hot                 int
	)
	// A traced run profiles the worker over the whole measured window.
	var profDone chan error
	workerProfile := filepath.Join(r.opt.out, r.opt.workload+"-elfd-cpu.pprof")
	if r.opt.trace {
		profDone = make(chan error, 1)
		secs := max(1, int(math.Ceil(r.opt.seconds)))
		go func() { profDone <- w.profile(workerProfile, secs) }()
	}
	err = r.units(func(i int) error {
		var (
			res  eval.Results
			l    []float64
			wall float64
			err  error
		)
		_, err = r.item(i, 0, "pass", func(root *obs.Span) error {
			res, l, wall, err = fleetGrid(r, root, timer, entries, cfgs, r.sz.fleetMeasure)
			return err
		})
		r.op(err, "hot fleet grid")
		if err != nil {
			return nil
		}
		got, err := json.Marshal(res)
		r.check(err == nil && bytes.Equal(got, want), "hot pass: results differ from the cold pass")
		lat = append(lat, l...)
		hot += len(l)
		rate = append(rate, float64(len(res))/wall)
		slotIdle = append(slotIdle, 1-sum(l)/(2*wall))
		return nil
	})
	if profDone != nil {
		if perr := <-profDone; err == nil {
			err = perr
		}
	}
	if err != nil {
		return err
	}
	st1, err := w.stats()
	if err != nil {
		return err
	}
	r.check(st1.Scheduler.Completed == st0.Scheduler.Completed,
		"hot passes re-simulated %d cells", st1.Scheduler.Completed-st0.Scheduler.Completed)
	r.check(st1.Scheduler.Cache.Hits-st0.Scheduler.Cache.Hits == uint64(hot),
		"worker cache answered %d of %d hot cells", st1.Scheduler.Cache.Hits-st0.Scheduler.Cache.Hits, hot)
	req1, err := w.requests()
	if err != nil {
		return err
	}
	rss1, err := procKB(w.pid, "VmRSS")
	if err != nil {
		return err
	}
	hwm, err := procKB(w.pid, "VmHWM")
	if err != nil {
		return err
	}
	fs := f.Stats()
	var retried uint64
	for _, ws := range fs.Workers {
		retried += ws.Retried
	}

	r.setPct("cells_per_s", rate, 50)
	r.setPct("cell_ms_p50", scale(lat, 1e3), 50)
	r.setPct("cell_ms_tail", scale(lat, 1e3), 99)
	r.set("rss_peak_mb", peakRSSMB()+hwm/1024, 2)
	r.set("elfd.rss_mb", hwm/1024, 1)
	r.set("elfd.rss_kb_per_kreq", ratio(rss1-rss0, (req1-req0)/1000), int(req1-req0))
	r.set("elfd.cache_hit_ratio", st1.CacheHitRate, int(req1))
	r.set("elfd.task_ms_mean", ratio(st1.Scheduler.TaskSeconds*1e3, float64(st1.Scheduler.Completed)), int(st1.Scheduler.Completed))
	r.set("fleet.hop_ms_mean", ratio((hop.Sum()-hopSum0)*1e3, float64(hop.Count()-hopN0)), int(hop.Count()-hopN0))
	r.set("fleet.retried", float64(retried), hot)
	r.set("fleet.fallback", float64(fs.Fallback), hot)
	r.setPct("sched.key_us", scale(keys, 1e6), 50)
	r.set("eval.slot_idle_frac", mean(slotIdle), len(slotIdle))

	if r.opt.trace {
		samples, err := readProfile(workerProfile)
		if err != nil {
			return err
		}
		ws := workerShares(samples)
		for _, k := range []string{"json", "http", "sched", "gc"} {
			r.set("worker."+k+"_frac", ws[k], len(samples))
		}
	}
	return r.finishTrace()
}
