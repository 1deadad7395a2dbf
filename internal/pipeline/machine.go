package pipeline

import (
	"context"
	"errors"

	"elfetch/internal/backend"
	"elfetch/internal/bpred"
	"elfetch/internal/btb"
	"elfetch/internal/cache"
	"elfetch/internal/core"
	"elfetch/internal/frontend"
	"elfetch/internal/isa"
	"elfetch/internal/program"
	"elfetch/internal/ringq"
	"elfetch/internal/trace"
	"elfetch/internal/uop"
)

// maxInFlightGroups is the fetch→decode buffer depth: fetch applies
// backpressure once this many groups await decode, so the inFlight ring
// never grows past it.
const maxInFlightGroups = 4

// fetchGroup is one cycle's fetch output in flight to decode.
type fetchGroup struct {
	uops     []uop.Uop
	decodeAt uint64
	canceled bool
	// next is the decode cursor: instructions before it already decoded
	// (decode can pause mid-group on structural stalls).
	next int
}

// pendingPrefetch is one in-flight FAQ instruction prefetch.
type pendingPrefetch struct {
	line       isa.Addr
	completeAt uint64
}

// uncondCheck is a coupled-followed unconditional direct branch awaiting
// confirmation in the decoupled stream.
type uncondCheck struct {
	idx    int // period-relative instruction index of the branch
	target isa.Addr
}

// Machine is one simulated core: a front-end organisation, the ELF
// controller, and the out-of-order back-end, bound to a workload's oracle.
type Machine struct {
	cfg  Config
	prog *program.Program

	stream *trace.Stream
	synth  *trace.Synth

	hier       *cache.Hierarchy
	btbH       *btb.BTB
	btbBuilder *btb.Builder

	// Decoupled-location predictors (also the NoDCF front-end's
	// predictors — same structures, coupled location, Figure 1).
	tage   *bpred.TAGE
	ittage *bpred.ITTAGE
	btcL0  *bpred.BTC
	rasDCF *bpred.RAS

	faq *frontend.FAQ
	dcf *frontend.DCF
	elf *core.Controller
	be  *backend.Backend

	now     uint64
	fetchID uint64

	// Oracle binding.
	fetchSeq    uint64
	onWrongPath bool

	// Fetch state.
	fetchPC        isa.Addr // coupled/NoDCF next fetch PC
	fetchBusyUntil uint64
	redirectAt     uint64 // decode-redirect bubble: fetch resumes here
	fetchHalted    bool   // waiting for an execute-time resteer
	coupledStalled bool   // ELF coupled mode stalled at a control decision
	switchPending  bool   // ELF: FAQ caught up; coupled fetch paused to drain
	faqOffset      int    // instructions of the FAQ head already fetched
	headProcessed  bool   // ELF: current FAQ head already counted by ProcessHead
	headRecorded   bool   // ELF: current FAQ head already in the decoupled vectors

	// uncondChecks are pending verifications that the DCF stream contains
	// the unconditional direct branches the coupled fetcher followed —
	// the minimal divergence detection the counts-only L-ELF needs when
	// the BTB misses an unconditional (cf. Section IV-C2 case 1).
	uncondChecks *ringq.Queue[uncondCheck]

	// stalled holds the control decision coupled fetch is parked at. The
	// instruction itself is HELD AT DECODE (paper semantics: the fetcher
	// stalls at the decision) and released with the DCF's adopted
	// prediction when resynchronization resolves it.
	stalled struct {
		active  bool
		fetchID uint64
		idx     int     // period-relative instruction index
		u       uop.Uop // the held instruction
	}
	headPeriodIdx int // ELF: period index of the FAQ head's first inst

	// inFlight and renameQ are the per-cycle hot queues; both are rings
	// whose slots (and, for inFlight, each slot's uops backing array) are
	// recycled so the steady-state loop never allocates (DESIGN.md §17).
	inFlight *ringq.Queue[fetchGroup]
	renameQ  *ringq.Queue[uop.Uop]

	// NoDCF decode-time speculative history (the DCF owns its own).
	specHist bpred.History

	// Architectural (retire-time) state for checkpoint-less repair.
	retHist bpred.History
	archRAS *bpred.RAS

	// Late-binding watermark: uops with FetchID <= this are
	// checkpoint-bound (Section IV-D1).
	ckptWatermark uint64

	// periodGen numbers ELF coupled periods so period-relative indexes
	// can be matched against in-flight uops unambiguously.
	periodGen uint64

	// lastRetired tracks the newest committed sequence (watchdog resume
	// point). idleCycles counts consecutive completely-empty cycles.
	lastRetired uint64
	haveRetired bool
	idleCycles  uint64
	quietCycles uint64

	pendingPF []pendingPrefetch

	nopStatic program.Static // synthetic nop for out-of-image wrong paths

	// Stats is the run's metric sink.
	Stats Stats

	// tracer, when attached, records per-instruction pipeline events.
	tracer *Tracer

	// probe, when attached, receives sampled distributions (probe.go).
	// The timestamps below are its interval state.
	probe          *Probe
	nextFAQSample  uint64
	flushAt        uint64
	flushArmed     bool
	coupledEnterAt uint64
	drainStartAt   uint64
	drainArmed     bool
}

// New builds a machine for the program under the given configuration.
func New(cfg Config, prog *program.Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:    cfg,
		prog:   prog,
		stream: trace.NewStream(prog),
		synth:  trace.NewSynth(prog),
		hier:   cache.NewHierarchy(),
		btbH:   btb.New(cfg.BTB),
		tage:   bpred.NewTAGE(),
		ittage: bpred.NewITTAGE(),
		btcL0:  bpred.NewBTC(64),
		rasDCF: bpred.NewRAS(32),
		faq:    frontend.NewFAQ(cfg.FAQSize),
	}
	m.btbBuilder = btb.NewBuilder(m.btbH)
	m.archRAS = bpred.NewRAS(32)
	// Size the hot-loop rings from the configuration and prime every
	// inFlight slot's uops backing array: the steady-state loop recycles
	// these buffers instead of allocating (DESIGN.md §17), and newUop
	// reslices into their FetchWidth capacity. renameQ's bound
	// is the decode backpressure threshold (FetchWidth*4) plus one more
	// decoded group plus the released stalled instruction.
	m.inFlight = ringq.New[fetchGroup](maxInFlightGroups)
	for i := 0; i < m.inFlight.Cap(); i++ {
		m.inFlight.PushSlot().uops = make([]uop.Uop, 0, cfg.FetchWidth)
	}
	m.inFlight.Clear()
	m.renameQ = ringq.New[uop.Uop](cfg.FetchWidth*5 + 2)
	m.uncondChecks = ringq.New[uncondCheck](16)
	m.pendingPF = make([]pendingPrefetch, 0, cfg.MaxPrefetch)
	m.be = backend.New(cfg.Backend, m.hier)
	m.elf = core.NewController(cfg.Variant)
	m.elf.SatFilter = cfg.SatFilter
	if cfg.CondConfidence && m.elf.Pred.Bimodal != nil {
		m.elf.Pred.Conf = core.NewConfTable(512)
	}
	m.nopStatic = program.Static{Class: isa.ALU, StateID: -1, FuncID: -1}

	if cfg.Front == FrontDCF {
		m.dcf = frontend.NewDCF(m.btbH, m.tage, m.ittage, m.btcL0, m.rasDCF, m.faq)
		m.dcf.BPredToFAQ = uint64(cfg.BPredToFetch)
		if cfg.Boomerang {
			m.dcf.SetPredecoder(&predecoder{m: m})
		}
		m.dcf.Resteer(prog.Entry, bpred.History{}, nil)
	}
	m.fetchPC = prog.Entry
	// Every machine starts "after a flush": ELF variants begin coupled.
	m.elf.EnterCoupled()
	return m, nil
}

// MustNew is New that panics on config errors.
func MustNew(cfg Config, prog *program.Program) *Machine {
	m, err := New(cfg, prog)
	if err != nil {
		panic(err)
	}
	return m
}

// ELF exposes the controller (stats: coupled periods, divergences).
func (m *Machine) ELF() *core.Controller { return m.elf }

// BTBStats exposes the BTB hit statistics.
func (m *Machine) BTBStats() *btb.Stats { return &m.btbH.Stats }

// Hierarchy exposes the cache hierarchy (stats).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Backend exposes the OoO engine (stats).
func (m *Machine) Backend() *backend.Backend { return m.be }

// Now returns the current cycle.
func (m *Machine) Now() uint64 { return m.now }

// FAQHighWater exposes the FAQ's deepest occupancy in blocks since the
// last stats reset (0 until a DCF front enqueues anything).
func (m *Machine) FAQHighWater() int { return m.faq.HighWater() }

// inCoupledMode reports whether fetch is currently self-directed.
func (m *Machine) inCoupledMode() bool {
	if m.cfg.Front == FrontNoDCF {
		return true
	}
	return m.elf.Mode() == core.Coupled
}

// ErrWedged reports that a run hit the safety cycle bound without
// committing its instruction budget (the machine is provably stuck).
var ErrWedged = errors.New("pipeline: machine wedged (safety cycle bound hit)")

// abortPollCycles is how often RunContext polls its context. At a few
// thousand cycles it bounds cancellation latency well under a millisecond
// of host time while keeping the fast path branch-free between polls.
const abortPollCycles = 2048

// Run simulates until n correct-path instructions have committed (or a
// safety cycle bound is hit) and returns the stats.
func (m *Machine) Run(n uint64) *Stats {
	st, err := m.RunContext(context.Background(), n)
	if err != nil {
		//lint:allow panic Run is the panicking convenience wrapper; serving paths use RunContext
		panic(err.Error())
	}
	return st
}

// RunContext is Run with a cycle-budget abort hook: every abortPollCycles
// simulated cycles it polls ctx and, when the context is done, stops and
// returns the stats so far alongside ctx.Err(). A wedged machine returns
// ErrWedged instead of panicking, so servers can survive bad configs.
//
// Cycle is the one-cycle step, and RunContext ends where stepping Cycle
// until n instructions commit would, with the same state and Stats. It
// may advance the clock over stalled cycles, though: while a full window
// holds the whole machine still (stallWake), it moves now straight to the
// next cycle that can change anything and counts the cycles in between
// as Cycle would have.
func (m *Machine) RunContext(ctx context.Context, n uint64) (*Stats, error) {
	target := m.Stats.Committed + n
	limit := m.now + n*100 + 1_000_000 // safety net: IPC 0.01 floor
	nextPoll := m.now + abortPollCycles
	for m.Stats.Committed < target && m.now < limit {
		m.Cycle()
		// Once the budget is met the loop ends, as stepping would: a
		// skip here would add the cycles of a stall no one runs.
		if m.Stats.Committed < target {
			if w := m.stallWake(limit); w > m.now {
				d := w - m.now
				m.Stats.Cycles += d
				m.Stats.CycBackpressure += d
				m.quietCycles += d
				m.now = w
			}
		}
		if m.now >= nextPoll {
			nextPoll = m.now + abortPollCycles
			if err := ctx.Err(); err != nil {
				return &m.Stats, err
			}
		}
	}
	if m.Stats.Committed < target {
		return &m.Stats, ErrWedged
	}
	return &m.Stats, nil
}

// stallWake returns the first cycle at or after now at which Cycle can
// change the machine, or now itself unless the machine stands in a window
// stall. In that stall each stage of Cycle is a no-op but for the counts
// RunContext adds when it skips:
//   - rename cannot place renameQ's head: the back end refuses it
//     (Backend.WaitUntil mirrors Accept), and the head's checkpoint bound
//     is already set, so rename writes nothing;
//   - the back end issues, commits and resolves nothing until an issued
//     entry's completion bucket comes round (Backend.WaitUntil);
//   - renameQ holds more than four fetch groups, so decode holds its
//     groups and fetch, with no miss, redirect or halt pending, counts
//     one backpressure cycle;
//   - the DCF is absent, halted or has a full FAQ, and an elastic
//     controller is decoupled, where the resync step only compares
//     tracking vectors nothing adds to;
//   - no FAQ prefetch completes, and none issues because fetch is not
//     idle;
//   - the watchdog sees a busy machine, so it fires only on a perpetual
//     wrong path, checked when quietCycles reaches a multiple of 64;
//   - the probe samples the FAQ only at nextFAQSample.
//
// The hierarchy's clock is not advanced over the stall: SetClock at the
// wake cycle frees the same MSHRs as stepping it through every cycle.
func (m *Machine) stallWake(limit uint64) uint64 {
	now := m.now
	if m.renameQ.Len() <= m.cfg.FetchWidth*4 || m.fetchBusyUntil > now || m.redirectAt > now || m.fetchHalted {
		return now
	}
	if m.dcf != nil {
		if !m.dcf.Halted() && !m.faq.Full() {
			return now
		}
		if m.elf.Variant.Elastic() && m.elf.Mode() != core.Decoupled {
			return now
		}
	}
	head := m.renameQ.Front()
	if head.Coupled && head.FetchID <= m.ckptWatermark && !head.CkptBound {
		return now
	}
	w := min(m.be.WaitUntil(now, head), limit)
	for i := range m.pendingPF {
		w = min(w, m.pendingPF[i].completeAt)
	}
	if m.onWrongPath {
		// The watchdog's next look for a perpetual wrong path.
		q := m.quietCycles + 1            // the count Cycle(now) checks
		check := (max(q, 256) + 63) &^ 63 // the next multiple of 64 from 256 on
		w = min(w, now+check-q)
	}
	if p := m.probe; p != nil && p.FAQOccupancy != nil && m.dcf != nil {
		w = min(w, m.nextFAQSample)
	}
	return w
}

// Cycle advances the machine one clock.
//
// Resolutions (flushes) are applied before commit: a mispredicted branch
// must trigger its pipeline flush no later than its own retirement, or the
// front-end would be stranded on the wrong path with nothing left in
// flight to resteer it.
func (m *Machine) Cycle() {
	now := m.now
	m.hier.SetClock(now)
	if m.probe != nil {
		m.probeSample(now)
	}
	m.handleResolutions(now)
	m.be.Commit(now)
	m.retire()
	m.be.Cycle(now)
	m.rename(now)
	m.decode(now)
	m.fetch(now)
	if m.dcf != nil {
		m.dcf.Cycle(now)
		if m.elf.Variant.Elastic() {
			m.resyncStep(now)
		}
	}
	m.prefetchStep(now)
	m.watchdog(now)
	m.Stats.Cycles++
	m.now++
}

// watchdog forces a recovery when the machine is provably stuck: nothing in
// the back end, nothing in the front end, no cache access or redirect
// pending, and the state has not moved for far longer than the largest
// architected latency. The recovery is exactly what a flush would do —
// restart both engines at the oldest uncommitted instruction — so measured
// results stay architecturally exact; the occurrence count is reported.
func (m *Machine) watchdog(now uint64) {
	busy := !m.be.ROBEmpty() || m.renameQ.Len() > 0 || m.inFlight.Len() > 0 ||
		m.fetchBusyUntil > now || m.redirectAt > now ||
		m.be.OldestResolution() != nil
	if busy {
		m.idleCycles = 0
	} else {
		m.idleCycles++
	}

	// A halted fetch with a completely empty machine can only be rescued
	// by an in-flight resteer — which does not exist: recover immediately
	// (cost comparable to a misfetch). Other idle shapes get a long grace
	// period (a cold I-cache miss keeps the machine legitimately empty
	// for up to the memory latency).
	fire := m.idleCycles >= 600 || (m.fetchHalted && m.idleCycles >= 4)
	if !fire && m.onWrongPath && m.quietCycles >= 256 && m.quietCycles%64 == 0 {
		// Perpetual wrong path: no commits for a long time, and no
		// correct-path instruction anywhere that could anchor a flush.
		if !m.be.HasCorrectPathWork() && !m.hasCorrectPathFrontendWork() {
			fire = true
		}
	}
	if !fire {
		return
	}
	m.idleCycles = 0
	m.quietCycles = 0
	m.Stats.WatchdogRecoveries++
	seq := uint64(0)
	if m.haveRetired {
		seq = m.lastRetired + 1
	}
	pc := m.stream.Get(seq).PC
	m.squashFrontendAll()
	if m.dcf != nil {
		m.faq.Clear()
		m.dcf.Resteer(pc, m.retHist, nil)
		m.rasDCF.CopyFrom(m.archRAS)
		m.enterCoupledAt()
		if m.elf.Pred.RAS != nil {
			m.elf.Pred.RAS.CopyFrom(m.archRAS)
		}
	} else {
		m.specHist = m.retHist
		m.rasDCF.CopyFrom(m.archRAS)
	}
	m.resteerFetchTo(seq, pc, now+1)
}

// hasCorrectPathFrontendWork reports a bound (non-wrong-path) uop in the
// front-end queues.
func (m *Machine) hasCorrectPathFrontendWork() bool {
	for i := 0; i < m.renameQ.Len(); i++ {
		if !m.renameQ.At(i).WrongPath {
			return true
		}
	}
	for gi := 0; gi < m.inFlight.Len(); gi++ {
		g := m.inFlight.At(gi)
		if g.canceled {
			continue
		}
		for i := range g.uops {
			if !g.uops[i].WrongPath {
				return true
			}
		}
	}
	return false
}

// rename moves decoded uops into the back-end, up to RenameWidth.
func (m *Machine) rename(now uint64) {
	w := m.cfg.Backend.RenameWidth
	n := 0
	for n < w && m.renameQ.Len() > 0 {
		u := m.renameQ.Front()
		if u.Coupled && u.FetchID <= m.ckptWatermark {
			u.CkptBound = true
		}
		if !m.be.Accept(u) {
			break
		}
		if m.tracer != nil {
			m.tracer.renamed(u.FetchID, now)
		}
		m.renameQ.PopFront()
		n++
	}
}

// newUop materialises the instruction at pc in the next slot of fetch group
// g, binding it to the oracle when on the correct path; coupled marks an
// ELF coupled-mode fetch. The slot is where the uop is written; decode
// copies it on to renameQ.
func (m *Machine) newUop(g *fetchGroup, pc isa.Addr, coupled bool) *uop.Uop {
	n := len(g.uops)
	g.uops = g.uops[:n+1]
	u := &g.uops[n]
	*u = uop.Uop{}
	m.fetchID++
	u.FetchID, u.PC, u.CoupledIdx, u.Coupled = m.fetchID, pc, -1, coupled

	if !m.onWrongPath {
		d := m.stream.Get(m.fetchSeq)
		if d.PC == pc {
			u.Seq = d.Seq
			u.SI = d.SI
			u.ActTaken = d.Taken
			u.ActTarget = d.NextPC
			u.MemAddr = d.MemAddr
			m.fetchSeq++
			m.Stats.FetchedUops++
			if m.tracer != nil {
				m.tracer.fetched(u, m.now)
			}
			return u
		}
		m.onWrongPath = true
	}

	u.WrongPath = true
	si := m.prog.At(pc)
	if si == nil {
		si = &m.nopStatic
	}
	u.SI = si
	if si.Class.IsMemory() {
		u.MemAddr = m.synth.MemAddr(si)
	}
	m.Stats.FetchedUops++
	m.Stats.WrongPathFetched++
	if m.tracer != nil {
		m.tracer.fetched(u, m.now)
	}
	return u
}

// resteerFetchTo repoints the oracle binding and the coupled fetch PC.
func (m *Machine) resteerFetchTo(seq uint64, pc isa.Addr, at uint64) {
	m.fetchSeq = seq
	m.onWrongPath = false
	m.fetchPC = pc
	m.redirectAt = at
	m.fetchHalted = false
	m.coupledStalled = false
	m.switchPending = false
	m.fetchBusyUntil = 0
	m.faqOffset = 0
	m.headProcessed = false
	m.headRecorded = false
}

// squashUndecodedGroups drops in-flight fetch groups that have not passed
// decode yet (decode-time resteers: everything younger than the resteering
// instruction is fetched-but-undecoded), rolling back their coupled-count
// contributions.
func (m *Machine) squashUndecodedGroups() {
	for gi := 0; gi < m.inFlight.Len(); gi++ {
		g := m.inFlight.At(gi)
		if g.canceled {
			continue
		}
		for i := range g.uops {
			if g.uops[i].Coupled {
				m.elf.OnCoupledSquash(1)
			}
		}
		g.canceled = true
	}
	m.inFlight.Clear()
}

// squashFrontendAll additionally drops decoded-but-not-renamed uops (full
// pipeline flushes; the ELF period restarts via EnterCoupled, so no count
// rollback is needed for renameQ entries).
func (m *Machine) squashFrontendAll() {
	m.squashUndecodedGroups()
	m.renameQ.Clear()
}

// ResetStats zeroes the measurement counters after warmup so reported
// numbers cover only the measured region (SimPoint-style methodology).
// Microarchitectural state (caches, predictors, BTB) is preserved.
func (m *Machine) ResetStats() {
	m.Stats = Stats{}
	m.btbH.Stats = btb.Stats{}
	m.faq.ResetHighWater()
	for _, c := range []*cache.Cache{m.hier.L0I, m.hier.L1I, m.hier.L1D, m.hier.L2, m.hier.L3} {
		c.Accesses, c.Misses = 0, 0
	}
	m.elf.Periods = 0
	m.elf.CoupledInstsTotal = 0
	m.elf.PeriodHist = [12]uint64{}
	m.elf.Divergences = [4]uint64{}
	m.elf.ResyncSwitches = 0
	m.elf.ResyncPops = 0
	m.elf.OvershootSquashes = 0
	m.be.Committed = 0
	m.be.WrongPathExec = 0
	m.be.LoadViolations = 0
}
