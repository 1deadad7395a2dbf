package eval

import (
	"context"
	"fmt"

	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// Cell is one (workload, configuration, run-length) unit of an evaluation
// grid — the quantum of work execution backends dispatch. Its JSON
// encoding is both the wire format of elfd's POST /v1/cells worker
// endpoint and the content-address input for result caching, so the
// struct must stay flat, exported and free of non-serialisable state
// (probes attach on the executing side, never travel with the cell).
type Cell struct {
	// Workload names a registered workload (workload.Lookup); custom
	// programs cannot be dispatched remotely.
	Workload string          `json:"workload"`
	Config   pipeline.Config `json:"config"`
	Warmup   uint64          `json:"warmup"`
	Measure  uint64          `json:"measure"`
}

// Params lifts the cell's run lengths into a Params value.
func (c Cell) Params() Params { return Params{Warmup: c.Warmup, Measure: c.Measure} }

// Validate rejects cells no worker could honour.
func (c Cell) Validate() error {
	if c.Workload == "" {
		return fmt.Errorf("eval: cell has no workload")
	}
	if err := c.Config.Validate(); err != nil {
		return err
	}
	return c.Params().Validate()
}

// RunCell resolves and measures one cell in-process — the per-cell twin
// of RunOne, and what both execution backends (internal/exec) and elfd's
// POST /v1/cells endpoint ultimately call. probe, when non-nil, is
// attached to the machine after warmup exactly as Params.Probe would be.
// Determinism of the sim core guarantees RunCell returns bit-identical
// Results for the same cell no matter which process runs it, which is
// what makes remote execution transparent.
func RunCell(ctx context.Context, c Cell, probe *pipeline.Probe) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	e, err := workload.Lookup(c.Workload)
	if err != nil {
		return Result{}, err
	}
	p := c.Params()
	p.Probe = probe
	return RunOne(ctx, e, c.Config, p, nil)
}

// CellRunner dispatches evaluation cells to an execution backend. The
// interface is defined here (rather than in internal/exec, which provides
// the implementations) so the eval layer can fan grids out through a
// backend without importing it.
type CellRunner interface {
	// Run executes one cell to completion, honouring ctx.
	Run(ctx context.Context, c Cell) (Result, error)
}

// CellResult pairs a cell with its measurement.
type CellResult struct {
	Cell   Cell   `json:"cell"`
	Result Result `json:"result"`
}

// Results is an ordered evaluation result set: cells appear in dispatch
// order (an experiment's cell order; for MatrixResults, workloads outer
// and configurations inner, both in the order given), so its JSON
// marshalling is stable across runs and processes. Failed or cancelled
// cells are absent.
type Results []CellResult

// Get returns the result for (workload, config name).
func (rs Results) Get(workload, config string) (Result, bool) {
	for _, cr := range rs {
		if cr.Cell.Workload == workload && cr.Cell.Config.Name() == config {
			return cr.Result, true
		}
	}
	return Result{}, false
}
