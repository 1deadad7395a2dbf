// Package lint is elflint's analyzer suite: a dependency-free (stdlib
// go/ast + go/parser + go/types, no x/tools) static checker that enforces
// the simulator's architectural invariants — the seams the paper's
// methodology depends on but the compiler cannot see:
//
//   - determinism: the simulation core must be bit-for-bit replayable, so
//     wall clocks, ambient randomness, environment reads and
//     order-sensitive map iteration are banned there (randomness flows
//     through internal/xrand).
//   - layering: the model layer must not import the serving layer
//     (internal/{sched,obs,eval,exec,report,store}, cmd/*),
//     internal/obs imports nothing internal, and internal/store — the
//     persistence leaf — imports only internal/obs, so the hot loop can
//     never grow a metrics or storage dependency by accident.
//   - probegate: every dereference of a nil-able observation hook —
//     *pipeline.Probe, *pipeline.Tracer, or the distributed-trace
//     *obs.Span — must be dominated by a nil guard, preserving the
//     "a probed run is architecturally identical to an unprobed one"
//     contract across pipeline, obs and exec.
//   - ctx: context.Context is plumbed, never stored — struct fields are
//     banned outside sched's Job — and exported sched/eval functions that
//     accept a ctx must not manufacture context.Background() internally.
//   - panicpolicy: sim-core panics are allowed only inside must*/Must*
//     helpers and init funcs, or with an explicit pragma carrying a
//     reason.
//
// On top of the single-statement checks sits a control-flow-graph +
// dominator engine (cfg.go, facts.go) powering the concurrency and
// resource-safety suite over the fleet paths
// (internal/{exec,sched,store,obs} and cmd/elfd):
//
//   - goroleak: every `go` statement must spawn a function with a
//     provable exit path — some reachable block that cannot reach the
//     function exit (a `for {}` with no returning select case, a select
//     on channels nobody closes) is a leaked goroutine;
//   - closecheck: a value acquired from a call whose type carries
//     `Close() error` (an *http.Response body, an os.File, a store tier)
//     must be closed on every path from the acquisition to the exit,
//     via defer or per-branch closes; error-arm and nil-arm branches are
//     pruned since the value is invalid there;
//   - lockheld: no blocking operation — channel send/receive, a
//     default-less select, http.Client.Do, time.Sleep, WaitGroup.Wait —
//     while a sync.Mutex/RWMutex acquired in the same function is still
//     held; nested acquisitions feed a module-wide lock-ordering graph
//     whose cycles (potential deadlocks) are reported at Finish;
//   - atomicmix: a struct field accessed through sync/atomic anywhere in
//     the module must never be read or written non-atomically elsewhere.
//
// Findings can be suppressed per line with
//
//	//lint:ignore <check> <reason>
//
// placed on the offending line or alone on the line above it, and
// //lint:allow panic <reason> is accepted as an alias for
// //lint:ignore panicpolicy <reason>.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: file:line:col, the check that produced it,
// and a message.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"` // module-relative path
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
}

// String renders the canonical file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// SchemaVersion identifies the shape of elflint's -json output. Bump it
// only on breaking changes to the Diagnostic fields or the envelope, so
// CI artifacts from different runs stay diffable.
const SchemaVersion = 1

// Check is one invariant analyzer. Run inspects a loaded, type-checked
// package and reports findings; pragma filtering happens in the runner.
type Check interface {
	Name() string
	Doc() string
	Run(pkg *Package) []Diagnostic
}

// Finisher is implemented by checks that accumulate cross-package state
// during Run (the lock-ordering graph, the atomic-field census) and emit
// whole-module findings once every package has been visited. A Finisher
// check instance is good for exactly one lint.Run; AllChecks returns
// fresh instances.
type Finisher interface {
	Finish() []Diagnostic
}

// AllChecks returns the full suite in stable order. Stateful checks
// (Finishers) are freshly allocated per call.
func AllChecks() []Check {
	return []Check{
		determinismCheck{},
		layeringCheck{},
		probeGateCheck{},
		ctxCheck{},
		panicPolicyCheck{},
		goroLeakCheck{},
		closeCheck{},
		newLockHeldCheck(),
		newAtomicMixCheck(),
	}
}

// SelectChecks resolves a comma-separated -checks selector ("" or "all"
// means the full suite). Duplicate names are an error: a CI gate that
// lists a check twice is almost always a typo'd list, and a silently
// deduplicated one would hide it.
func SelectChecks(sel string) ([]Check, error) {
	all := AllChecks()
	if sel == "" || sel == "all" {
		return all, nil
	}
	byName := make(map[string]Check, len(all))
	for _, c := range all {
		byName[c.Name()] = c
	}
	seen := make(map[string]bool)
	var out []Check
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, checkNames(all))
		}
		if seen[name] {
			return nil, fmt.Errorf("lint: check %q selected twice", name)
		}
		seen[name] = true
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty -checks selector")
	}
	return out, nil
}

func checkNames(checks []Check) string {
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.Name()
	}
	return strings.Join(names, ",")
}

// simCorePackages are the module-relative import paths of the simulation
// core: the packages whose cycle-level behaviour must be deterministic and
// free of serving-layer dependencies.
var simCorePackages = map[string]bool{
	"internal/pipeline": true,
	"internal/frontend": true,
	"internal/bpred":    true,
	"internal/btb":      true,
	"internal/cache":    true,
	"internal/core":     true,
	"internal/isa":      true,
	"internal/uop":      true,
	"internal/program":  true,
	"internal/trace":    true,
	"internal/workload": true,
	// backend is not named in the original invariant list but sits on the
	// same side of the model/serving split (the OoO engine).
	"internal/backend": true,
	// ringq backs the cycle loop's queues; it carries the same
	// determinism and layering obligations as its callers.
	"internal/ringq": true,
}

// servingLayerPackages are module-relative paths the sim core must never
// import.
var servingLayerPackages = map[string]bool{
	"internal/sched":  true,
	"internal/obs":    true,
	"internal/eval":   true,
	"internal/exec":   true,
	"internal/report": true,
	"internal/store":  true,
}

// CheckTiming is one check's cumulative wall-clock across every package
// it ran over (plus its Finish pass, for Finishers).
type CheckTiming struct {
	Check   string
	Elapsed time.Duration
}

// Run loads every package matched by patterns under dir's module and runs
// checks over them, returning pragma-filtered diagnostics sorted by
// position. Checks implementing Finisher get a final whole-module pass
// after every package has been visited; their findings go through the
// same pragma filter. A non-nil error means the load itself failed (not a
// finding).
func Run(dir string, patterns []string, checks []Check) ([]Diagnostic, error) {
	diags, _, err := RunTimed(dir, patterns, checks)
	return diags, err
}

// RunTimed is Run plus per-check wall-clock timing, in the order checks
// were given (`make lint` prints it so a check that quietly turns
// quadratic is caught by eye, not by a slow CI three months later).
func RunTimed(dir string, patterns []string, checks []Check) ([]Diagnostic, []CheckTiming, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	elapsed := make([]time.Duration, len(checks))
	// Pragmas are collected module-wide up front: Finisher diagnostics can
	// land in any package, and the ignore keys carry the filename so there
	// is no cross-package collision.
	ignores := make(map[ignoreKey]bool)
	for _, pkg := range pkgs {
		collectIgnores(pkg, ignores)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for i, c := range checks {
			start := time.Now()
			found := c.Run(pkg)
			elapsed[i] += time.Since(start)
			for _, d := range found {
				if !suppressed(ignores, d) {
					diags = append(diags, d)
				}
			}
		}
	}
	for i, c := range checks {
		f, ok := c.(Finisher)
		if !ok {
			continue
		}
		start := time.Now()
		found := f.Finish()
		elapsed[i] += time.Since(start)
		for _, d := range found {
			if !suppressed(ignores, d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Check < diags[j].Check
	})
	timings := make([]CheckTiming, len(checks))
	for i, c := range checks {
		timings[i] = CheckTiming{Check: c.Name(), Elapsed: elapsed[i]}
	}
	return diags, timings, nil
}

// ignoreKey identifies one pragma's reach: a (file, line, check) triple.
type ignoreKey struct {
	file  string
	line  int
	check string
}

// collectIgnores gathers //lint:ignore and //lint:allow pragmas into
// ignores. A pragma suppresses matching diagnostics on its own line and
// on the following line (covering both trailing-comment and comment-above
// placement).
func collectIgnores(pkg *Package, ignores map[ignoreKey]bool) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, ok := parsePragma(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ignores[ignoreKey{pos.Filename, pos.Line, check}] = true
				ignores[ignoreKey{pos.Filename, pos.Line + 1, check}] = true
			}
		}
	}
}

// parsePragma recognises "//lint:ignore <check> <reason>" and
// "//lint:allow panic <reason>" (a space after // is tolerated). The
// reason is mandatory: a pragma without one is ignored, so unexplained
// suppressions do not silence findings.
func parsePragma(text string) (check string, ok bool) {
	body := strings.TrimPrefix(text, "//")
	body = strings.TrimSpace(body)
	switch {
	case strings.HasPrefix(body, "lint:ignore"):
		fields := strings.Fields(strings.TrimPrefix(body, "lint:ignore"))
		if len(fields) >= 2 { // check name + at least one reason word
			return fields[0], true
		}
	case strings.HasPrefix(body, "lint:allow"):
		fields := strings.Fields(strings.TrimPrefix(body, "lint:allow"))
		if len(fields) >= 2 && fields[0] == "panic" {
			return "panicpolicy", true
		}
	}
	return "", false
}

func suppressed(ignores map[ignoreKey]bool, d Diagnostic) bool {
	return ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Check}]
}

// diag builds a Diagnostic for a node in pkg.
func diag(pkg *Package, node ast.Node, check, format string, args ...any) Diagnostic {
	pos := pkg.Fset.Position(node.Pos())
	return Diagnostic{
		Pos:     pos,
		File:    pkg.RelPath(pos.Filename),
		Line:    pos.Line,
		Col:     pos.Column,
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}
