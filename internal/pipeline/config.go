// Package pipeline wires the front-end organisations against the shared
// out-of-order back-end and runs the cycle loop. Three organisations are
// supported (Section VI):
//
//   - NoDCF: a classic coupled pipeline — fetch generates sequential PCs,
//     branch predictions are attributed in parallel with decode, taken
//     branches cost one decode-redirect bubble (more for slow indirect
//     predictions), and flushes resteer fetch directly.
//   - DCF: the baseline decoupled fetcher — BP1/BP2 generate FAQ blocks,
//     fetch consumes them, decode recovers BTB misses, and every flush
//     restarts BP1 (3 extra cycles before fetch sees an address).
//   - ELF: DCF plus ELastic Fetching (internal/core) in one of its five
//     variants — after a flush the fetcher probes the I-cache immediately
//     in coupled mode while the DCF restarts, resynchronizing per Figure 5.
package pipeline

import (
	"fmt"
	"strings"

	"elfetch/internal/backend"
	"elfetch/internal/btb"
	"elfetch/internal/core"
)

// FrontKind selects the front-end organisation.
type FrontKind uint8

const (
	// FrontNoDCF is the coupled baseline.
	FrontNoDCF FrontKind = iota
	// FrontDCF is the decoupled fetcher; Variant selects plain DCF
	// (core.NoELF) or an ELF variant.
	FrontDCF
)

func (k FrontKind) String() string {
	if k == FrontNoDCF {
		return "NoDCF"
	}
	return "DCF"
}

// CheckpointPolicy says how a flush from a coupled-fetched instruction
// whose branch-prediction checkpoint is not yet bound is handled
// (Section IV-D1).
type CheckpointPolicy uint8

const (
	// CkptLateBind: checkpoint queue entries are populated from FAQ
	// information as the DCF catches up; flushes wait only until their
	// entry binds.
	CkptLateBind CheckpointPolicy = iota
	// CkptROBHeadWait: the flush waits until the instruction reaches the
	// ROB head — simpler hardware, slower recovery.
	CkptROBHeadWait
)

func (p CheckpointPolicy) String() string {
	if p == CkptROBHeadWait {
		return "rob-head-wait"
	}
	return "late-bind"
}

// Config is the full machine configuration (Table II defaults).
type Config struct {
	Front   FrontKind
	Variant core.Variant

	FetchWidth int
	// FAQSize is the decoupling queue depth (32).
	FAQSize int
	// BPredToFetch is the number of front stages between BP1 and fetch
	// consumption (3: BP1, BP2, FAQ) — the extra flush depth DCF pays.
	BPredToFetch int
	// FetchToDecode is the fetch→decode latency (1).
	FetchToDecode int
	// IndirectSlowBubbles is the extra decode-redirect penalty when only
	// the slow (ITTAGE) indirect predictor has the target.
	IndirectSlowBubbles int

	BTB     btb.Config
	Backend backend.Config

	// SatFilter gates COND-ELF on bimodal saturation (Section VI-B).
	SatFilter bool
	// CoupledUpdateAll trains the coupled predictors on every retired
	// branch instead of only coupled-fetched ones. The paper argues for
	// coupled-only updates (Section IV-D3: "it makes little sense to
	// allocate entries for branches that will never ... be fetched in
	// coupled mode"); with this simulator's synthetic flush distribution
	// the sparse training leaves counters stale, so the all-branches
	// policy is the default and the paper's policy is the ablation
	// (BenchmarkAblationCoupledUpdatePolicy).
	CoupledUpdateAll bool
	// Ckpt selects the coupled-checkpoint flush policy.
	Ckpt CheckpointPolicy
	// InterleaveFetch enables fetching across a predicted-taken branch in
	// one cycle when branch and target map to different L0I interleave
	// banks (Section VI-A).
	InterleaveFetch bool
	// FAQPrefetch enables instruction prefetching from FAQ addresses on
	// idle L0I cycles.
	FAQPrefetch bool
	// MaxPrefetch bounds in-flight instruction prefetches (4).
	MaxPrefetch int

	// Boomerang enables predecode-based BTB-miss resolution (Kumar et
	// al. [11]; the paper points to it as the way to fully hide the
	// BTB-miss penalty, Section VI-C). Off in the paper's baseline.
	Boomerang bool
	// CoupledZeroBubble models the Section IV-E optimization: with a
	// sub-cycle L0I and the tiny coupled predictors, coupled-mode taken
	// redirects insert no bubble. Off in the paper's evaluation.
	CoupledZeroBubble bool
	// CondConfidence adds the "smarter filtering mechanism" the paper's
	// conclusion calls for: COND-ELF speculates only when a per-branch
	// confidence counter (trained on coupled-speculation outcomes) is
	// high, on top of the saturated-bimodal filter. Off by default.
	CondConfidence bool
}

// DefaultConfig returns the Table II baseline (decoupled fetcher, no ELF).
func DefaultConfig() Config {
	return Config{
		Front:               FrontDCF,
		Variant:             core.NoELF,
		FetchWidth:          8,
		FAQSize:             32,
		BPredToFetch:        3,
		FetchToDecode:       1,
		IndirectSlowBubbles: 2,
		BTB:                 btb.DefaultConfig(),
		Backend:             backend.DefaultConfig(),
		SatFilter:           true,
		CoupledUpdateAll:    true,
		Ckpt:                CkptLateBind,
		InterleaveFetch:     true,
		FAQPrefetch:         true,
		MaxPrefetch:         4,
	}
}

// WithVariant returns a copy configured for an ELF variant (or the plain
// DCF baseline for core.NoELF).
func (c Config) WithVariant(v core.Variant) Config {
	c.Front = FrontDCF
	c.Variant = v
	return c
}

// NoDCF returns a copy configured as the coupled baseline.
func (c Config) NoDCF() Config {
	c.Front = FrontNoDCF
	c.Variant = core.NoELF
	return c
}

// ParseFront returns the default configuration for a front-end name:
// "nodcf" (any case) names the coupled baseline, and anything
// core.ParseVariant accepts names the DCF under that ELF variant.
// ParseFront(c.Name()) returns c for every front-end c built from
// DefaultConfig.
func ParseFront(name string) (Config, error) {
	base := DefaultConfig()
	if strings.EqualFold(name, "nodcf") {
		return base.NoDCF(), nil
	}
	v, err := core.ParseVariant(name)
	if err != nil {
		return Config{}, fmt.Errorf("pipeline: unknown front-end %q (want NoDCF, DCF, L-ELF, RET-ELF, IND-ELF, COND-ELF or U-ELF)", name)
	}
	return base.WithVariant(v), nil
}

// Name describes the organisation for reports.
func (c Config) Name() string {
	if c.Front == FrontNoDCF {
		return "NoDCF"
	}
	return c.Variant.String()
}

// Upper bounds on the fields New sizes allocations from, so that one
// configuration cannot ask for more memory than a host has.
const (
	// MaxFetchWidth is twice Table II's 8. fetchCoupled tracks at most
	// two L0I lines per group, and 16 sequential instructions span at
	// most two 64-byte lines (18 can span three).
	MaxFetchWidth = 16
	// MaxFAQSize bounds the decoupling queue at 16 times Table II's 32.
	MaxFAQSize = 512
	// MaxPrefetches bounds MaxPrefetch at 16 times Table II's 4.
	MaxPrefetches = 64
)

// Validate rejects inconsistent configurations.
func (c *Config) Validate() error {
	if c.FetchWidth <= 0 || c.FAQSize <= 0 {
		return fmt.Errorf("pipeline: non-positive width/FAQ")
	}
	if c.FetchWidth > MaxFetchWidth {
		return fmt.Errorf("pipeline: FetchWidth %d above %d", c.FetchWidth, MaxFetchWidth)
	}
	if c.FAQSize > MaxFAQSize {
		return fmt.Errorf("pipeline: FAQSize %d above %d", c.FAQSize, MaxFAQSize)
	}
	if c.Front == FrontNoDCF && c.Variant != core.NoELF {
		return fmt.Errorf("pipeline: ELF variant requires the DCF front-end")
	}
	if c.BPredToFetch < 1 {
		return fmt.Errorf("pipeline: BPredToFetch must be >= 1")
	}
	if c.MaxPrefetch < 0 || c.MaxPrefetch > MaxPrefetches {
		return fmt.Errorf("pipeline: MaxPrefetch %d outside [0, %d] (0 disables instruction prefetch)", c.MaxPrefetch, MaxPrefetches)
	}
	if err := c.BTB.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if err := c.Backend.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
}
