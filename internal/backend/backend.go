// Package backend models the out-of-order execution engine of Table II:
// 8-wide rename, 9-wide issue and commit (4 ALU of which 2 MulDiv-capable,
// 2 load/store, 2 SIMD, 1 store-data), a 256-entry ROB, 128-entry issue
// queue and load/store queue, register renaming with true dependence
// tracking, and the PC-based memory-dependence filter whose RAW-violation
// flushes drive part of the paper's results (Section VI-B, milc).
//
// The backend is trace-agnostic: it executes whatever uops the front-end
// dispatches (including wrong-path ones, which occupy resources and access
// the data cache but never commit or raise flushes) and reports branch
// resolutions and memory-order violations as events for the pipeline to
// act on.
package backend

import (
	"fmt"

	"elfetch/internal/cache"
	"elfetch/internal/isa"
	"elfetch/internal/ringq"
	"elfetch/internal/uop"
)

// Config sizes the engine.
type Config struct {
	ROB, IQ, LSQ int
	RenameWidth  int
	CommitWidth  int
	// Ports per class.
	ALUPorts, MulDivPorts, MemPorts, SIMDPorts int
	// Latencies per class (cycles); loads add the cache latency.
	ALULat, MulDivLat, SIMDLat, AGULat, BranchLat int
}

// DefaultConfig is Table II.
func DefaultConfig() Config {
	return Config{
		ROB: 256, IQ: 128, LSQ: 128,
		RenameWidth: 8, CommitWidth: 9,
		ALUPorts: 4, MulDivPorts: 2, MemPorts: 2, SIMDPorts: 2,
		ALULat: 1, MulDivLat: 12, SIMDLat: 4, AGULat: 1, BranchLat: 1,
	}
}

// MaxROB bounds Config.ROB at 16 times Table II's window. New sizes the
// ROB and its side arrays from it, so the bound caps what one machine
// allocates before it runs.
const MaxROB = 4096

// MaxCommitWidth bounds Config.CommitWidth at 16 times Table II's 9. New
// sizes the retired-uop buffer from it.
const MaxCommitWidth = 144

// Validate rejects a configuration the engine cannot run: every size,
// width, port count and latency must be positive (a zero one stalls the
// engine or, for a latency, loses the completion), ROB at most MaxROB and
// CommitWidth at most MaxCommitWidth.
func (c Config) Validate() error {
	if c.ROB > MaxROB {
		return fmt.Errorf("backend: ROB %d above %d", c.ROB, MaxROB)
	}
	if c.CommitWidth > MaxCommitWidth {
		return fmt.Errorf("backend: CommitWidth %d above %d", c.CommitWidth, MaxCommitWidth)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ROB", c.ROB}, {"IQ", c.IQ}, {"LSQ", c.LSQ},
		{"RenameWidth", c.RenameWidth}, {"CommitWidth", c.CommitWidth},
		{"ALUPorts", c.ALUPorts}, {"MulDivPorts", c.MulDivPorts}, {"MemPorts", c.MemPorts}, {"SIMDPorts", c.SIMDPorts},
		{"ALULat", c.ALULat}, {"MulDivLat", c.MulDivLat}, {"SIMDLat", c.SIMDLat}, {"AGULat", c.AGULat}, {"BranchLat", c.BranchLat},
	} {
		if f.v <= 0 {
			return fmt.Errorf("backend: %s %d is not positive", f.name, f.v)
		}
	}
	return nil
}

// entry state
const (
	stWaiting uint8 = iota
	stReady
	stIssued
	stDone
)

type robEntry struct {
	u     uop.Uop
	id    uint64 // absolute age
	state uint8
	// class and dest copy u.SI.Class and u.SI.Dest, so the window scans
	// read them from the entry instead of dereferencing u.SI.
	class   isa.Class
	dest    isa.Reg
	pending int8 // outstanding source operands
	doneAt  uint64
	// mdpWait, if >= 0, is the absolute id of a store this load must
	// wait for (memory-dependence filter).
	mdpWait int64
	// srcProd are the absolute ids of the source producers (-1 none);
	// kept so a squash can unlink the entry's dependence edges.
	srcProd [2]int64
	// prevRAT is the RAT mapping of dest that this entry replaced at
	// Accept (-1 none); a squash restores it.
	prevRAT int64
	// addrDone marks a store whose address has resolved (it "executed").
	addrDone bool
}

// Resolution is a completed event the pipeline must act on. The resolving
// uop itself stays in its ROB entry (EntryByID).
type Resolution struct {
	// ID is the rob entry's absolute id.
	ID uint64
	// FetchID is the resolving uop's fetch identity: an entry squashed
	// and reused since the event was raised no longer matches it.
	FetchID uint64
	// Kind classifies the required flush.
	Kind uop.FlushKind
	// RefetchSeq is the correct-path sequence to resteer fetch to.
	RefetchSeq uint64
	// RefetchPC is the PC to resteer fetch to.
	RefetchPC isa.Addr
}

// Backend is the engine.
type Backend struct {
	cfg  Config
	hier *cache.Hierarchy

	// rob is backed by cfg.ROB rounded up to a power of two, so an id's
	// slot is id&mask; ROBFull still caps occupancy at cfg.ROB.
	rob     []robEntry
	mask    uint64
	robHead uint64 // oldest absolute id
	robTail uint64 // next absolute id
	// stores holds the ids of the in-flight stores, oldest first: a ring
	// of the same size as rob, where the k-th store pushed sits at
	// k&mask. Accept pushes at storeTail, Commit pops at storeHead and
	// SquashFrom pops squashed ids at storeTail, so the ring is always
	// exactly the stores in [robHead, robTail). Forwarding and the
	// dependence filter scan it instead of the whole window.
	stores               []uint64
	storeHead, storeTail uint64
	// loads is the same ring for the in-flight loads, which the
	// memory-order check scans.
	loads              []uint64
	loadHead, loadTail uint64
	iqCount            int
	lsqCount           int

	// rat maps architectural registers to producing entry ids (-1 none).
	rat [isa.NumArchRegs]int64

	// dependence edges: depHead[slot] is the first edge of the producer
	// in rob slot; edges are identified as consumerSlot*2+srcIndex.
	// Accept pushes edges at the head in age order, so each list runs
	// youngest consumer first.
	depHead []int32
	depNext []int32

	ready []int32 // rob slots ready to issue (issue sorts them by age)

	// wheel buckets issued entries by completion cycle so complete() does
	// not scan the whole window every cycle. wheelMask+1 exceeds the
	// maximum execution latency (memory: 250 cycles).
	wheel [512][]int32

	mdp MDP
	// mdpWaiters lists rob slots of loads gated by the dependence filter.
	mdpWaiters []int32

	// pendingResolutions holds branch/memory events awaiting pipeline
	// action, oldest first. A ring: resolutions are raised and consumed
	// every few cycles, and the old head-reslice idiom leaked the popped
	// front capacity, forcing a fresh allocation per raise.
	pendingResolutions *ringq.Queue[Resolution]

	// retired accumulates committed uops for the pipeline to drain each
	// cycle (BTB establishment, predictor training). The pointers address
	// ROB slots; see DrainRetired.
	retired []*uop.Uop

	// commitLimit fences retirement below a deferred resolution: the
	// entry at commitLimit (and younger) may not retire this cycle.
	commitLimit uint64

	// Stats.
	Committed       uint64
	ForwardedLoads  uint64
	WrongPathExec   uint64
	LoadViolations  uint64
	DeferredFlushes uint64
}

// New builds a backend over the given memory hierarchy.
func New(cfg Config, hier *cache.Hierarchy) *Backend {
	size := 1
	for size < cfg.ROB {
		size <<= 1
	}
	b := &Backend{
		commitLimit: ^uint64(0),
		cfg:         cfg,
		hier:        hier,
		rob:         make([]robEntry, size),
		mask:        uint64(size - 1),
		stores:      make([]uint64, size),
		loads:       make([]uint64, size),
		depHead:     make([]int32, size),
		depNext:     make([]int32, size*2),
		// Steady-state allocation discipline (DESIGN.md §17): every
		// per-cycle buffer gets its worst-case capacity up front. ready
		// and mdpWaiters hold rob slots, so the window size bounds them;
		// retired is drained by the pipeline every cycle.
		ready:              make([]int32, 0, cfg.ROB),
		mdpWaiters:         make([]int32, 0, cfg.ROB),
		retired:            make([]*uop.Uop, 0, 2*cfg.CommitWidth),
		pendingResolutions: ringq.New[Resolution](16),
	}
	for i := range b.wheel {
		b.wheel[i] = make([]int32, 0, 16)
	}
	for i := range b.rat {
		b.rat[i] = -1
	}
	for i := range b.depHead {
		b.depHead[i] = -1
	}
	b.mdp.Reset()
	return b
}

func (b *Backend) slot(id uint64) *robEntry { return &b.rob[id&b.mask] }

// ROBFull reports whether another uop can be accepted.
func (b *Backend) ROBFull() bool { return b.robTail-b.robHead >= uint64(b.cfg.ROB) }

// ROBEmpty reports an empty window.
func (b *Backend) ROBEmpty() bool { return b.robTail == b.robHead }

// Occupancy returns the number of in-flight uops.
func (b *Backend) Occupancy() int { return int(b.robTail - b.robHead) }

// Accept renames and dispatches one uop, copying it into its ROB entry; it
// returns false (and leaves the uop untaken) when a resource is exhausted.
// The caller enforces the rename-width limit per cycle.
func (b *Backend) Accept(u *uop.Uop) bool {
	class := u.SI.Class
	if b.full(class) {
		return false
	}
	id := b.robTail
	slotIdx := int32(id & b.mask)
	e := &b.rob[slotIdx]
	e.u = *u
	e.id = id
	e.state = stWaiting
	e.class = class
	e.dest = u.SI.Dest
	e.pending = 0
	e.doneAt = 0
	e.mdpWait = -1
	e.srcProd = [2]int64{-1, -1}
	e.addrDone = false
	b.depHead[slotIdx] = -1

	// Source dependences through the RAT.
	srcs := [2]isa.Reg{u.SI.Src1, u.SI.Src2}
	for s, r := range srcs {
		if r == isa.RegZero {
			continue
		}
		pid := b.rat[r]
		if pid < 0 || uint64(pid) < b.robHead {
			continue
		}
		pe := b.slot(uint64(pid))
		if pe.id != uint64(pid) || pe.state == stDone {
			continue
		}
		// Link edge consumer(slotIdx, s) onto producer pid's list.
		edge := slotIdx*2 + int32(s)
		pslot := int32(uint64(pid) & b.mask)
		b.depNext[edge] = b.depHead[pslot]
		b.depHead[pslot] = edge
		e.srcProd[s] = pid
		e.pending++
	}

	// Memory-dependence filter: a load predicted to conflict waits for
	// the youngest older in-flight store with the recorded store PC.
	if class == isa.Load && !u.WrongPath {
		if storePC, ok := b.mdp.Lookup(u.PC); ok {
			if sid, ok := b.pendingStore(storePC); ok {
				e.mdpWait = int64(sid)
				b.mdpWaiters = append(b.mdpWaiters, slotIdx)
			}
		}
	}

	e.prevRAT = -1
	if e.dest != isa.RegZero {
		e.prevRAT = b.rat[e.dest]
		b.rat[e.dest] = int64(id)
	}
	b.robTail++
	b.iqCount++
	switch class {
	case isa.Load:
		b.lsqCount++
		b.loads[b.loadTail&b.mask] = id
		b.loadTail++
	case isa.Store:
		b.lsqCount++
		b.stores[b.storeTail&b.mask] = id
		b.storeTail++
	}
	if e.pending == 0 && e.mdpWait < 0 {
		e.state = stReady
		b.ready = append(b.ready, slotIdx)
	}
	return true
}

// full reports whether Accept refuses a uop of the given class: the ROB or
// the issue queue is full, or, for a load or store, the load/store queue.
func (b *Backend) full(class isa.Class) bool {
	return b.ROBFull() || b.iqCount >= b.cfg.IQ || class.IsMemory() && b.lsqCount >= b.cfg.LSQ
}

// pendingStore returns the id of the youngest in-flight store at pc whose
// address has not resolved yet.
func (b *Backend) pendingStore(pc isa.Addr) (uint64, bool) {
	for k := b.storeTail; k > b.storeHead; {
		k--
		id := b.stores[k&b.mask]
		if se := b.slot(id); se.u.PC == pc && !se.addrDone {
			return id, true
		}
	}
	return 0, false
}

// latencyFor returns the execution latency of an issuing entry, performing
// the data cache access for memory operations (side effects included —
// wrong-path pollution is the point).
func (b *Backend) latencyFor(e *robEntry) int {
	u := &e.u
	switch e.class {
	case isa.MulDiv:
		return b.cfg.MulDivLat
	case isa.SIMD:
		return b.cfg.SIMDLat
	case isa.Load:
		// Store-to-load forwarding: a load whose address matches an
		// older in-flight store with a resolved address reads the
		// store buffer instead of the cache (1-cycle bypass).
		if b.forwardableStore(e.id, u) {
			b.ForwardedLoads++
			return b.cfg.AGULat + 1
		}
		if u.WrongPath {
			return b.cfg.AGULat + b.hier.WrongPathData(u.MemAddr)
		}
		return b.cfg.AGULat + b.hier.DataLatency(u.PC, u.MemAddr)
	case isa.Store:
		return b.cfg.AGULat // address generation; data drains at commit
	default:
		if e.class.IsBranch() {
			return b.cfg.BranchLat
		}
		return b.cfg.ALULat
	}
}

// forwardableStore reports whether a store older than the load u at
// loadID, on the same path, has resolved its address to the load's 8-byte
// slot — the store-buffer forwarding case. Younger stores never forward.
func (b *Backend) forwardableStore(loadID uint64, u *uop.Uop) bool {
	line := u.MemAddr &^ 7
	for k := b.storeTail; k > b.storeHead; {
		k--
		id := b.stores[k&b.mask]
		if id >= loadID {
			continue
		}
		e := b.slot(id)
		if e.addrDone && e.u.MemAddr&^7 == line && e.u.WrongPath == u.WrongPath {
			return true
		}
	}
	return false
}

// Cycle advances the engine: completion/wakeup, then issue.
func (b *Backend) Cycle(now uint64) {
	b.complete(now)
	b.issue(now)
}

// complete finishes executions whose latency elapsed, wakes dependents,
// and raises resolution events.
func (b *Backend) complete(now uint64) {
	slot := now % uint64(len(b.wheel))
	bucket := b.wheel[slot]
	b.wheel[slot] = bucket[:0]
	for _, slotIdx32 := range bucket {
		e := &b.rob[slotIdx32]
		if e.state == stIssued && e.doneAt > now && e.id != ^uint64(0) {
			// Latency beyond one wheel revolution (e.g. MSHR-queued
			// misses): re-arm for the next pass.
			b.wheel[slot] = append(b.wheel[slot], slotIdx32)
			continue
		}
		if e.state != stIssued || e.doneAt != now || e.id == ^uint64(0) {
			continue // squashed or re-allocated slot
		}
		e.state = stDone
		slotIdx := slotIdx32
		// Wake dependents.
		for edge := b.depHead[slotIdx]; edge >= 0; edge = b.depNext[edge] {
			cons := edge / 2
			ce := &b.rob[cons]
			if ce.state != stWaiting {
				continue
			}
			ce.pending--
			if ce.pending == 0 && ce.mdpWaitSatisfied(b) {
				ce.state = stReady
				b.ready = append(b.ready, cons)
			}
		}
		b.depHead[slotIdx] = -1

		switch {
		case e.class == isa.Store:
			e.addrDone = true
			if !e.u.WrongPath {
				b.checkStoreOrderViolation(e)
			}
			b.wakeMDPWaiters(e.id)
		case e.class.IsBranch() && !e.u.WrongPath && e.u.Mispredicted():
			b.raiseBranchResolution(e)
		}
	}
}

func (e *robEntry) mdpWaitSatisfied(b *Backend) bool {
	if e.mdpWait < 0 {
		return true
	}
	se := b.slot(uint64(e.mdpWait))
	if se.id != uint64(e.mdpWait) || uint64(e.mdpWait) < b.robHead {
		return true // store squashed or committed
	}
	return se.addrDone
}

// wakeMDPWaiters re-checks loads that were waiting on this store.
func (b *Backend) wakeMDPWaiters(storeID uint64) {
	kept := b.mdpWaiters[:0]
	for _, s := range b.mdpWaiters {
		e := &b.rob[s]
		if e.id == ^uint64(0) || e.id < b.robHead || e.class != isa.Load || e.mdpWait < 0 {
			continue // squashed or stale
		}
		if e.mdpWait == int64(storeID) {
			e.mdpWait = -1
			if e.state == stWaiting && e.pending == 0 {
				e.state = stReady
				b.ready = append(b.ready, s)
			}
			continue
		}
		kept = append(kept, s)
	}
	b.mdpWaiters = kept
}

// checkStoreOrderViolation raises a RAW order violation (Table II
// "Memory Disambiguation") when a younger load to the store's 8-byte slot
// already executed. The filter trains and the pipeline refetches from the
// load.
func (b *Backend) checkStoreOrderViolation(store *robEntry) {
	e := b.violatingLoad(store)
	if e == nil {
		return
	}
	b.LoadViolations++
	b.mdp.Train(e.u.PC, store.u.PC)
	b.pendingResolutions.PushBack(Resolution{
		ID:         e.id,
		FetchID:    e.u.FetchID,
		Kind:       uop.FlushMemOrder,
		RefetchSeq: e.u.Seq,
		RefetchPC:  e.u.PC,
	})
}

// violatingLoad returns the oldest correct-path load younger than store
// that has issued to the store's 8-byte slot, or nil. It scans the load
// ring from the oldest load younger than the store, which a binary search
// over the ring's ascending ids finds.
func (b *Backend) violatingLoad(store *robEntry) *robEntry {
	line := store.u.MemAddr &^ 7
	lo, hi := b.loadHead, b.loadTail
	for lo < hi {
		mid := lo + (hi-lo)/2
		if b.loads[mid&b.mask] < store.id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for k := lo; k < b.loadTail; k++ {
		e := b.slot(b.loads[k&b.mask])
		if !e.u.WrongPath && (e.state == stIssued || e.state == stDone) && e.u.MemAddr&^7 == line {
			return e
		}
	}
	return nil
}

func (b *Backend) raiseBranchResolution(e *robEntry) {
	kind := uop.FlushBranch
	if e.class.IsIndirect() || (e.u.PredTaken && e.u.ActTaken && e.u.PredTarget != e.u.ActTarget) {
		kind = uop.FlushTarget
	}
	b.pendingResolutions.PushBack(Resolution{
		ID:         e.id,
		FetchID:    e.u.FetchID,
		Kind:       kind,
		RefetchSeq: e.u.Seq + 1,
		RefetchPC:  e.u.ActTarget,
	})
}

// issue selects ready uops oldest-first within port constraints: it sorts
// the ready list by age and walks it once, issuing each entry a port is
// free for and keeping the rest for the next cycle. Issue order is age
// order, which fixes the order of the data-cache accesses in latencyFor
// and of the completion wheel's buckets.
func (b *Backend) issue(now uint64) {
	if len(b.ready) == 0 {
		return
	}
	b.sortReady()
	alu, muldiv, mem, simd := b.cfg.ALUPorts, b.cfg.MulDivPorts, b.cfg.MemPorts, b.cfg.SIMDPorts
	issuedTotal := 0
	limit := b.cfg.ALUPorts + b.cfg.MemPorts + b.cfg.SIMDPorts + 1
	kept := b.ready[:0]
	for i, s := range b.ready {
		if issuedTotal == limit {
			kept = append(kept, b.ready[i:]...)
			break
		}
		e := &b.rob[s]
		fits := false
		switch e.class {
		case isa.MulDiv:
			if muldiv > 0 && alu > 0 {
				muldiv--
				alu--
				fits = true
			}
		case isa.SIMD:
			if simd > 0 {
				simd--
				fits = true
			}
		case isa.Load, isa.Store:
			if mem > 0 {
				mem--
				fits = true
			}
		default:
			if alu > 0 {
				alu--
				fits = true
			}
		}
		if !fits {
			kept = append(kept, s)
			continue
		}
		e.state = stIssued
		e.doneAt = now + uint64(b.latencyFor(e))
		wslot := e.doneAt % uint64(len(b.wheel))
		b.wheel[wslot] = append(b.wheel[wslot], s)
		if e.u.WrongPath {
			b.WrongPathExec++
		}
		b.iqCount--
		issuedTotal++
	}
	b.ready = kept
}

// sortReady orders the ready list oldest first. Entries mostly arrive in
// age order, so an insertion sort runs in close to linear time.
func (b *Backend) sortReady() {
	r := b.ready
	for i := 1; i < len(r); i++ {
		s := r[i]
		id := b.rob[s].id
		j := i
		for ; j > 0 && b.rob[r[j-1]].id > id; j-- {
			r[j] = r[j-1]
		}
		r[j] = s
	}
}

// WaitUntil returns the first cycle at or after now at which Commit or
// Cycle can change the engine, or Accept(next) take next, while nothing
// else is accepted. It is now itself when next fits, an entry is ready to
// issue, a resolution is pending, the commit fence is up or the ROB head
// has completed. Otherwise nothing moves until an issued entry's
// completion: the answer is the first cycle whose wheel bucket holds any
// slot, even one only re-armed for a later revolution or left stale by a
// squash, because complete visits buckets in order and drops or re-arms
// them there; and ^uint64(0) when the wheel is empty.
func (b *Backend) WaitUntil(now uint64, next *uop.Uop) uint64 {
	if !b.full(next.SI.Class) || len(b.ready) > 0 || b.pendingResolutions.Len() > 0 ||
		b.commitLimit != ^uint64(0) || b.robHead < b.robTail && b.slot(b.robHead).state == stDone {
		return now
	}
	n := uint64(len(b.wheel))
	for d := uint64(0); d < n; d++ {
		if len(b.wheel[(now+d)%n]) > 0 {
			return now + d
		}
	}
	return ^uint64(0)
}

// LimitCommit fences retirement: entries with id >= limit stay in the ROB
// this cycle (a deferred flush must fire before its instruction retires).
// The fence resets to "no limit" automatically each Commit call via
// ResetCommitLimit from the pipeline.
func (b *Backend) LimitCommit(limit uint64) { b.commitLimit = limit }

// ResetCommitLimit removes the retirement fence.
func (b *Backend) ResetCommitLimit() { b.commitLimit = ^uint64(0) }

// Commit retires completed head entries (up to CommitWidth), appending them
// to the retired buffer. Wrong-path entries at the head are discarded
// without retiring (they were squashed logically; see SquashFrom).
func (b *Backend) Commit(now uint64) {
	for n := 0; n < b.cfg.CommitWidth && b.robHead < b.robTail; n++ {
		if b.robHead >= b.commitLimit {
			return
		}
		e := b.slot(b.robHead)
		if e.state != stDone {
			return
		}
		switch e.class {
		case isa.Load:
			b.lsqCount--
			b.loadHead++
		case isa.Store:
			b.lsqCount--
			b.storeHead++
		}
		if !e.u.WrongPath {
			b.retired = append(b.retired, &e.u)
			b.Committed++
		}
		if d := e.dest; d != isa.RegZero && b.rat[d] == int64(e.id) {
			b.rat[d] = -1
		}
		b.robHead++
	}
}

// DrainRetired returns and clears the committed-uop buffer. The uops are
// the retired ROB entries themselves: they stay valid until the next
// Accept, which may reuse their slots.
func (b *Backend) DrainRetired() []*uop.Uop {
	r := b.retired
	b.retired = b.retired[:0]
	return r
}

// OldestResolution returns the oldest pending resolution event, or nil.
// Resolutions whose uop was squashed in the meantime are dropped.
func (b *Backend) OldestResolution() *Resolution {
	for b.pendingResolutions.Len() > 0 {
		r := b.pendingResolutions.Front()
		e := b.slot(r.ID)
		if r.ID < b.robHead || e.id != r.ID || e.u.FetchID != r.FetchID {
			b.pendingResolutions.PopFront()
			continue
		}
		return r
	}
	return nil
}

// PopResolution removes the oldest pending resolution.
func (b *Backend) PopResolution() {
	if b.pendingResolutions.Len() > 0 {
		b.pendingResolutions.PopFront()
	}
}

// SquashFrom discards every entry with id >= boundary (exclusive flush of
// younger instructions). It walks only the squashed entries, youngest
// first, and undoes what Accept did for each: its destination's RAT entry
// gets back the mapping it replaced, and a waiting entry's dependence
// edges come off its surviving producers' lists, where Accept's age order
// puts them at the head. A survivor's producers are older than it and
// survive too, so no survivor's pending count or readiness changes.
func (b *Backend) SquashFrom(boundary uint64) {
	if boundary < b.robHead {
		boundary = b.robHead
	}
	for id := b.robTail; id > boundary; {
		id--
		e := b.slot(id)
		switch e.state {
		case stWaiting:
			b.iqCount--
			b.unlinkEdges(e, boundary)
		case stReady:
			b.iqCount--
		}
		switch e.class {
		case isa.Load:
			b.lsqCount--
			b.loadTail--
		case isa.Store:
			b.lsqCount--
			b.storeTail--
		}
		if d := e.dest; d != isa.RegZero {
			// The oldest squashed writer of d restores last. A mapping
			// to an entry that has committed since reads as none.
			p := e.prevRAT
			if p >= 0 && uint64(p) < b.robHead {
				p = -1
			}
			b.rat[d] = p
		}
		e.id = ^uint64(0) // invalidate
	}
	b.robTail = boundary
	// Drop squashed entries from the ready list.
	kept := b.ready[:0]
	for _, s := range b.ready {
		e := &b.rob[s]
		if e.id != ^uint64(0) && e.id < b.robTail {
			kept = append(kept, s)
		}
	}
	b.ready = kept
	// Release loads whose gating store was squashed (they would otherwise
	// wait forever: wakeMDPWaiters only fires on store completion).
	keptW := b.mdpWaiters[:0]
	for _, s := range b.mdpWaiters {
		e := &b.rob[s]
		if e.id == ^uint64(0) || e.id >= b.robTail || e.id < b.robHead || e.mdpWait < 0 {
			continue
		}
		if uint64(e.mdpWait) >= b.robTail {
			e.mdpWait = -1
			if e.state == stWaiting && e.pending == 0 {
				e.state = stReady
				b.ready = append(b.ready, s)
			}
			continue
		}
		keptW = append(keptW, s)
	}
	b.mdpWaiters = keptW
	// Drop squashed resolutions lazily via OldestResolution.
}

// unlinkEdges pops the squashed waiting entry e's edges off the lists of
// its producers that survive the squash at boundary and have not
// completed (a completed producer's list is already empty, and a squashed
// one's is reset when Accept reuses its slot). The squash walks consumers
// youngest first, so e's edges are the heads of those lists.
func (b *Backend) unlinkEdges(e *robEntry, boundary uint64) {
	for _, pid := range e.srcProd {
		if pid < 0 || uint64(pid) < b.robHead || uint64(pid) >= boundary {
			continue
		}
		pslot := uint64(pid) & b.mask
		if b.rob[pslot].state == stDone {
			continue
		}
		b.depHead[pslot] = b.depNext[b.depHead[pslot]]
	}
}

// HeadID returns the oldest in-flight absolute id (== NextID when empty).
func (b *Backend) HeadID() uint64 { return b.robHead }

// NextID returns the id the next accepted uop will get.
func (b *Backend) NextID() uint64 { return b.robTail }

// EntryByID returns the uop at an absolute id, if still in flight.
func (b *Backend) EntryByID(id uint64) *uop.Uop {
	if id < b.robHead || id >= b.robTail {
		return nil
	}
	e := b.slot(id)
	if e.id != id {
		return nil
	}
	return &e.u
}

// MarkCkptBound sets the checkpoint-bound flag on in-flight coupled uops up
// to and including id (Section IV-D1 late binding).
func (b *Backend) MarkCkptBound(upTo uint64) {
	for id := b.robHead; id < b.robTail && id <= upTo; id++ {
		e := b.slot(id)
		if e.id == id {
			e.u.CkptBound = true
		}
	}
}

// FindByCoupledIdx locates the in-flight coupled uop with the given ELF
// period index in the given period generation (divergence recovery).
func (b *Backend) FindByCoupledIdx(gen uint64, idx int) (uint64, bool) {
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		if e.id == id && e.u.Coupled && e.u.CoupledGen == gen && e.u.CoupledIdx == idx {
			return id, true
		}
	}
	return 0, false
}

// FirstCoupledAfter returns the oldest in-flight coupled uop of the given
// period generation with an index greater than idx (the squash boundary on
// a DCF divergence win).
func (b *Backend) FirstCoupledAfter(gen uint64, idx int) (uint64, bool) {
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		if e.id == id && e.u.Coupled && e.u.CoupledGen == gen && e.u.CoupledIdx > idx {
			return id, true
		}
	}
	return 0, false
}

// DumpWindow describes in-flight entries (debug).
func (b *Backend) DumpWindow(f func(id uint64, pc uint64, class string, state uint8, pending int8, mdpWait int64, doneAt uint64, wrong bool)) {
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		f(id, uint64(e.u.PC), e.u.SI.Class.String(), e.state, e.pending, e.mdpWait, e.doneAt, e.u.WrongPath)
	}
}

// IQCount exposes the issue-queue occupancy (debug).
func (b *Backend) IQCount() int { return b.iqCount }

// HasCorrectPathWork reports whether any non-wrong-path uop is in flight —
// i.e. whether a future commit or flush anchor exists.
func (b *Backend) HasCorrectPathWork() bool {
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		if e.id == id && !e.u.WrongPath {
			return true
		}
	}
	return false
}

// FindByFetchID locates an in-flight uop by its fetch identity.
func (b *Backend) FindByFetchID(fid uint64) (uint64, bool) {
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		if e.id == id && e.u.FetchID == fid {
			return id, true
		}
	}
	return 0, false
}

// ReResolve re-evaluates a (possibly already completed) branch after its
// prediction was amended by ELF resynchronization: if it now counts as
// mispredicted and has already executed, a resolution is raised so the
// flush is not lost.
func (b *Backend) ReResolve(id uint64) {
	if id < b.robHead || id >= b.robTail {
		return
	}
	e := b.slot(id)
	if e.id != id || e.u.WrongPath || !e.u.IsBranch() {
		return
	}
	if e.state == stDone && e.u.Mispredicted() {
		b.raiseBranchResolution(e)
	}
}
