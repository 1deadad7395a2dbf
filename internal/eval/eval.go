// Package eval regenerates the paper's evaluation section. Every figure,
// table, sweep and ablation is an Experiment in one registry: a list of
// cells plus a table renderer, run by RunExperiment through the same grid
// dispatch (Params.Runner) behind cmd/elfbench -exp and cmd/elfd's
// experiment jobs (DESIGN.md §4 maps each figure to its entry).
//
// Every runner takes a context.Context and returns an error: cancelling the
// context aborts in-flight simulations within a few thousand simulated
// cycles (pipeline.Machine.RunContext's poll interval), which is what lets
// the elfd server cancel jobs when clients abort.
package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"elfetch/internal/btb"
	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/program"
	"elfetch/internal/uop"
	"elfetch/internal/workload"
)

// Params controls run lengths. The paper uses 100M-instruction SimPoints;
// the defaults here are laptop-scale and configurable from the CLI/server.
type Params struct {
	// Warmup instructions before counters reset.
	Warmup uint64
	// Measure instructions counted after warmup.
	Measure uint64
	// Parallel workers (0 = GOMAXPROCS).
	Parallel int
	// Probe, when non-nil, is attached to every machine after warmup so
	// measurement-window latency/occupancy distributions land in its
	// observers (see NewProbe for the registry-backed construction). It is
	// deliberately invisible to JSON so cache keys derived from Params are
	// unaffected. Observers must be safe for concurrent use when runs are
	// parallel (obs histograms are).
	Probe *pipeline.Probe `json:"-"`
	// Runner, when non-nil, dispatches matrix cells through an execution
	// backend (see internal/exec: Local wraps a scheduler worker pool and
	// result cache, Fleet shards cells across remote elfd workers); nil
	// measures each cell in this process. Like Probe it is invisible to
	// JSON so cache keys derived from Params are unaffected. Grids address
	// workloads by name, so every entry must be registered.
	Runner CellRunner `json:"-"`
}

// DefaultParams is the laptop-scale default run length: the -warmup and
// -insts defaults of cmd/elfbench and cmd/elfd.
func DefaultParams() Params {
	return Params{Warmup: 200_000, Measure: 800_000}
}

// MaxRunInsts bounds warmup+measure per run. It exists so a remote caller
// cannot tie up an elfd worker for hours with one request; raise it if you
// really are reproducing 100M-instruction SimPoints.
const MaxRunInsts = 1_000_000_000

// Validate rejects parameter sets no runner can honour.
func (p Params) Validate() error {
	if p.Measure == 0 {
		return fmt.Errorf("eval: Measure must be positive")
	}
	// Compared term by term: the sum of two uint64s can wrap past the
	// budget and read as within it.
	if p.Warmup > MaxRunInsts || p.Measure > MaxRunInsts-p.Warmup {
		return fmt.Errorf("eval: Warmup %d + Measure %d exceeds the %d-instruction budget",
			p.Warmup, p.Measure, uint64(MaxRunInsts))
	}
	if p.Parallel < 0 {
		return fmt.Errorf("eval: negative Parallel")
	}
	return nil
}

// workers resolves the worker count.
func (p Params) workers() int {
	if p.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Parallel
}

// Result is one (workload, configuration) measurement.
type Result struct {
	Workload string `json:"workload"`
	Suite    string `json:"suite"`
	Config   string `json:"config"`

	IPC        float64    `json:"ipc"`
	MPKI       float64    `json:"mpki"`
	AvgCoupled float64    `json:"avgCoupled"` // avg insts per coupled period (Figure 8)
	BTBHit     [3]float64 `json:"btbHit"`
	L1IMiss    float64    `json:"l1iMiss"`
	RAWFlushes uint64     `json:"rawFlushes"`
	Resteers   uint64     `json:"resteers"`
	WrongPath  uint64     `json:"wrongPath"`
	Prefetches uint64     `json:"prefetches"`
	Committed  uint64     `json:"committed"`
	Cycles     uint64     `json:"cycles"`
}

// Measure is the one measurement procedure every number in the
// reproduction comes from (EXPERIMENTS.md, "Methodology"). It validates
// p, builds a machine for prog under cfg, runs p.Warmup instructions,
// resets the counters, attaches p.Probe and tr (either may be nil) and
// runs p.Measure instructions. The returned machine's Stats, BTB, cache
// and ELF counters cover the measured window only. A cancelled ctx stops
// the run with ctx.Err(), and a wedged machine with pipeline.ErrWedged.
func Measure(ctx context.Context, prog *program.Program, cfg pipeline.Config, p Params, tr *pipeline.Tracer) (*pipeline.Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := pipeline.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if p.Warmup > 0 {
		if _, err := m.RunContext(ctx, p.Warmup); err != nil {
			return nil, err
		}
		m.ResetStats()
	}
	if p.Probe != nil {
		m.AttachProbe(p.Probe)
	}
	if tr != nil {
		m.AttachTracer(tr)
	}
	if _, err := m.RunContext(ctx, p.Measure); err != nil {
		return nil, err
	}
	return m, nil
}

// RunOne measures one workload under one configuration and summarises
// the run as a Result. tr, when non-nil, records the measured window
// (export it with Tracer.WritePipeview or Tracer.WriteChromeTrace).
func RunOne(ctx context.Context, e *workload.Entry, cfg pipeline.Config, p Params, tr *pipeline.Tracer) (Result, error) {
	m, err := Measure(ctx, e.Program(), cfg, p, tr)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(e, cfg, m), nil
}

// resultFrom assembles a Result from a finished measurement run.
func resultFrom(e *workload.Entry, cfg pipeline.Config, m *pipeline.Machine) Result {
	st := &m.Stats
	bs := m.BTBStats()
	r := Result{
		Workload:   e.Name,
		Suite:      e.Suite,
		Config:     cfg.Name(),
		IPC:        st.IPC(),
		MPKI:       st.BranchMPKI(),
		AvgCoupled: m.ELF().AvgCoupledInsts(),
		L1IMiss:    m.Hierarchy().L1I.MissRate(),
		RAWFlushes: st.Flushes[uop.FlushMemOrder],
		Resteers:   st.DecodeResteers,
		WrongPath:  st.WrongPathFetched,
		Prefetches: st.PrefetchIssued,
		Committed:  st.Committed,
		Cycles:     st.Cycles,
	}
	for l := btb.L0; l <= btb.L2; l++ {
		r.BTBHit[l] = bs.HitRate(l)
	}
	return r
}

// inProcess is the runner a grid uses when Params.Runner is nil: it
// measures each cell in this process, attaching probe after warmup.
type inProcess struct{ probe *pipeline.Probe }

func (r inProcess) Run(ctx context.Context, c Cell) (Result, error) {
	return RunCell(ctx, c, r.probe)
}

// MatrixResults evaluates the cross product of workloads × configs and
// returns an ordered result set (workloads outer, configs inner — the
// order given). p.workers() goroutines dispatch the cells through
// p.Runner, or measure them in this process when it is nil.
//
// Partial-results contract: a cell failure cancels the cells still
// running, but every cell that already completed is returned alongside a
// joined error naming each failed cell; when the caller's context is
// cancelled mid-grid, the completed prefix is returned with ctx.Err()
// folded into the joined error. Callers that only care about
// success can keep treating a non-nil error as fatal; callers that want
// completed work (elfd's experiment cache, long fleet runs) can consume the
// partial Results.
func MatrixResults(ctx context.Context, entries []*workload.Entry, cfgs []pipeline.Config, p Params) (Results, error) {
	cells := make([]Cell, 0, len(entries)*len(cfgs))
	for _, e := range entries {
		for _, c := range cfgs {
			cells = append(cells, Cell{Workload: e.Name, Config: c, Warmup: p.Warmup, Measure: p.Measure})
		}
	}
	return runCells(ctx, cells, p)
}

// runCells is the one grid dispatch loop behind MatrixResults and
// RunExperiment: it runs cells, in order, under MatrixResults'
// partial-results contract. The cells carry their own run lengths; p
// supplies the validation, worker count, runner and probe.
func runCells(ctx context.Context, cells []Cell, p Params) (Results, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	runner := p.Runner
	if runner == nil {
		runner = inProcess{probe: p.Probe}
	}
	n := len(cells)
	var (
		jobs    = make(chan int) // cell indices
		results = make([]Result, n)
		cellErr = make([]error, n)
		done    = make([]bool, n)
		wg      sync.WaitGroup
	)
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs { // keep draining after cancel so the feeder never blocks
				r, err := runner.Run(ctx, cells[i])
				if err != nil {
					cellErr[i] = err
					cancel()
					continue
				}
				results[i] = r
				done[i] = true
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := make(Results, 0, n)
	var errs []error
	for i, cell := range cells {
		switch {
		case done[i]:
			out = append(out, CellResult{Cell: cell, Result: results[i]})
		case cellErr[i] != nil && !errors.Is(cellErr[i], context.Canceled):
			errs = append(errs, fmt.Errorf("cell %s/%s: %w", cell.Workload, cell.Config.Name(), cellErr[i]))
		}
	}
	if err := parent.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) == 0 && len(out) < n {
		// Cells were cancelled by a sibling's abort without a reportable
		// cause of their own; never let an incomplete grid look complete.
		errs = append(errs, context.Canceled)
	}
	return out, errors.Join(errs...)
}

// Table1 writes the workload registry (the Table I substitution).
func Table1(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table I: workloads (synthetic proxies; see DESIGN.md §2)\n"); err != nil {
		return err
	}
	suites := workload.Suites()
	sort.Strings(suites)
	for _, s := range suites {
		if _, err := fmt.Fprintf(w, "\n%s:\n", s); err != nil {
			return err
		}
		for _, e := range workload.Suite(s) {
			if _, err := fmt.Fprintf(w, "  %-22s %s\n", e.Name, e.Notes); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table2 writes the machine configuration (Table II).
func Table2(w io.Writer) error {
	c := pipeline.DefaultConfig()
	ctrl := core.NewCoupledPredictors(core.UELF)
	_, err := fmt.Fprintf(w, `Table II: baseline pipeline configuration
  Fetch/Rename width        %d
  Issue width               %d (4 ALU/2 MulDiv, 2 LD/ST, 2 SIMD, 1 StData)
  ROB/IQ/LSQ                %d/%d/%d
  BTB                       L0 %d FA / L1 %d %d-way / L2 %d %d-way
  FAQ                       %d-entry FIFO
  BP1 to FE latency         %d cycles
  Cond pred                 32KB TAGE (8 tagged tables)
  Ind pred                  64-entry L0 BTC + 32KB ITTAGE (4 tables)
  RAS                       32-entry
  I-prefetch                FAQ-driven, <=%d in flight
  Caches                    L0I 24KB/3w/1c, L1I 64KB/8w/3c, L1D 32KB/8w/3c,
                            L2 512KB/8w/13c, L3 16MB/16w/35c, Mem 250c
  Coupled preds (U-ELF)     2K-entry 3-bit bimodal, 32-entry RAS, 64-entry BTC
  Coupled pred storage      %.2f KB (< 2KB per Table II)
`,
		c.FetchWidth,
		c.Backend.ALUPorts+c.Backend.MemPorts+c.Backend.SIMDPorts+1,
		c.Backend.ROB, c.Backend.IQ, c.Backend.LSQ,
		c.BTB.L0Entries, c.BTB.L1Entries, c.BTB.L1Ways, c.BTB.L2Entries, c.BTB.L2Ways,
		c.FAQSize,
		c.BPredToFetch,
		c.MaxPrefetch,
		float64(ctrl.StorageBits())/8/1024)
	return err
}

// PeriodHistogram prints the coupled-period length distribution for a
// variant on one workload (Figure 8 colour).
func PeriodHistogram(ctx context.Context, w io.Writer, name string, v core.Variant, p Params) error {
	e, err := workload.Lookup(name)
	if err != nil {
		return err
	}
	m, err := Measure(ctx, e.Program(), pipeline.DefaultConfig().WithVariant(v), p, nil)
	if err != nil {
		return err
	}
	elf := m.ELF()
	fmt.Fprintf(w, "%s on %s: %d coupled periods, avg %.1f insts\n",
		v, name, elf.Periods, elf.AvgCoupledInsts())
	lo := 0
	for i, c := range elf.PeriodHist {
		hi := 1 << uint(i)
		if c > 0 {
			fmt.Fprintf(w, "  %4d..%-5d %8d (%.1f%%)\n", lo, hi, c,
				100*float64(c)/float64(elf.Periods))
		}
		lo = hi + 1
	}
	return nil
}
