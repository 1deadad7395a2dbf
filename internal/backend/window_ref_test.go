package backend

import (
	"slices"
	"testing"

	"elfetch/internal/isa"
	"elfetch/internal/program"
	"elfetch/internal/uop"
	"elfetch/internal/xrand"
)

// refForwardableStore is the reference model of forwardableStore: it scans
// the whole window below the load and reads each entry's class through
// u.SI, instead of scanning the ring of in-flight store ids.
func (b *Backend) refForwardableStore(loadID uint64, u *uop.Uop) bool {
	line := u.MemAddr &^ 7
	for id := loadID; id > b.robHead; {
		id--
		e := b.slot(id)
		if e.u.SI.Class == isa.Store && e.addrDone && e.u.MemAddr&^7 == line &&
			e.u.WrongPath == u.WrongPath {
			return true
		}
	}
	return false
}

// refPendingStore is the reference model of pendingStore: the dependence
// filter's scan of the whole window, youngest first.
func (b *Backend) refPendingStore(pc isa.Addr) (uint64, bool) {
	for id := b.robTail; id > b.robHead; id-- {
		se := b.slot(id - 1)
		if se.u.SI.Class == isa.Store && se.u.PC == pc && !se.addrDone {
			return se.id, true
		}
	}
	return 0, false
}

// refViolatingLoad is the reference model of violatingLoad: the
// memory-order check's scan of every window entry younger than the store.
func (b *Backend) refViolatingLoad(store *robEntry) *robEntry {
	line := store.u.MemAddr &^ 7
	for id := store.id + 1; id < b.robTail; id++ {
		e := b.slot(id)
		if e.u.WrongPath || e.u.SI.Class != isa.Load {
			continue
		}
		if e.state != stIssued && e.state != stDone {
			continue
		}
		if e.u.MemAddr&^7 == line {
			return e
		}
	}
	return nil
}

// rebuilt is what the squash's old full rebuild derives from the window.
type rebuilt struct {
	rat     [isa.NumArchRegs]int64
	pending []int8  // by rob slot, for waiting entries
	head    []int32 // dependence lists, as Backend.depHead
	next    []int32 // as Backend.depNext
	ready   []uint64
}

// refRebuild is the reference model of the squash's repair: the rebuild
// SquashFrom ran over the whole surviving window. It maps each register
// to its youngest writer, recounts each waiting entry's producers that
// are in flight and not done, relinks their edges oldest consumer first,
// and lists the waiting entries it would have made ready.
func (b *Backend) refRebuild() *rebuilt {
	r := &rebuilt{
		pending: make([]int8, len(b.rob)),
		head:    make([]int32, len(b.rob)),
		next:    make([]int32, 2*len(b.rob)),
	}
	for i := range r.rat {
		r.rat[i] = -1
	}
	for i := range r.head {
		r.head[i] = -1
	}
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		if d := e.u.SI.Dest; d != isa.RegZero {
			r.rat[d] = int64(id)
		}
		if e.state != stWaiting {
			continue
		}
		slotIdx := int32(id & b.mask)
		for s, pid := range e.srcProd {
			if pid < 0 || uint64(pid) < b.robHead || uint64(pid) >= b.robTail {
				continue
			}
			pe := b.slot(uint64(pid))
			if pe.id != uint64(pid) || pe.state == stDone {
				continue
			}
			edge := slotIdx*2 + int32(s)
			pslot := int32(uint64(pid) & b.mask)
			r.next[edge] = r.head[pslot]
			r.head[pslot] = edge
			r.pending[slotIdx]++
		}
		if r.pending[slotIdx] == 0 && e.mdpWaitSatisfied(b) && e.mdpWait < 0 {
			r.ready = append(r.ready, id)
		}
	}
	return r
}

// edgeList walks the dependence list that starts at head.
func edgeList(head int32, next []int32) []int32 {
	var l []int32
	for e := head; e >= 0 && len(l) <= len(next); e = next[e] {
		l = append(l, e)
	}
	return l
}

// checkRepair compares the RAT, every waiting entry's pending count, every
// in-flight producer's dependence list and the ready list with what the
// full rebuild derives from the window. The ready list must hold each
// ready entry of the window once, and the rebuild must make nothing else
// ready.
func checkRepair(t *testing.T, b *Backend, op int) {
	t.Helper()
	ref := b.refRebuild()
	if b.rat != ref.rat {
		t.Fatalf("op %d: RAT %v, rebuild %v", op, b.rat, ref.rat)
	}
	if len(ref.ready) > 0 {
		t.Fatalf("op %d: the rebuild makes waiting entries %v ready", op, ref.ready)
	}
	ready := map[int32]bool{}
	for _, s := range b.ready {
		if ready[s] {
			t.Fatalf("op %d: slot %d is on the ready list twice", op, s)
		}
		ready[s] = true
	}
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		s := int32(id & b.mask)
		if e.state == stWaiting && e.pending != ref.pending[s] {
			t.Fatalf("op %d: entry %d waits on %d producers, rebuild %d", op, id, e.pending, ref.pending[s])
		}
		if got, want := edgeList(b.depHead[s], b.depNext), edgeList(ref.head[s], ref.next); !slices.Equal(got, want) {
			t.Fatalf("op %d: producer %d's consumer edges %v, rebuild %v", op, id, got, want)
		}
		if ready[s] != (e.state == stReady) {
			t.Fatalf("op %d: entry %d in state %d is on the ready list: %v", op, id, e.state, ready[s])
		}
		delete(ready, s)
	}
	if len(ready) > 0 {
		t.Fatalf("op %d: ready list holds slots %v outside the window", op, ready)
	}
}

// checkWindow compares the store and load rings, each entry's copied class
// and destination, forwarding, the dependence filter's store search and
// the memory-order check's load search with their window-scan references.
func checkWindow(t *testing.T, b *Backend, op int, storePCs []isa.Addr) {
	t.Helper()
	var want []uint64
	var loads []uint64
	for id := b.robHead; id < b.robTail; id++ {
		e := b.slot(id)
		if e.class != e.u.SI.Class || e.dest != e.u.SI.Dest {
			t.Fatalf("op %d: entry %d holds class %v dest %d, its uop %v dest %d", op, id, e.class, e.dest, e.u.SI.Class, e.u.SI.Dest)
		}
		switch e.u.SI.Class {
		case isa.Store:
			want = append(want, id)
		case isa.Load:
			loads = append(loads, id)
		}
	}
	if n := b.storeTail - b.storeHead; n != uint64(len(want)) {
		t.Fatalf("op %d: store ring holds %d ids, window %d stores", op, n, len(want))
	}
	for k, id := range want {
		if got := b.stores[(b.storeHead+uint64(k))&b.mask]; got != id {
			t.Fatalf("op %d: store ring slot %d = %d, window store %d", op, k, got, id)
		}
		se := b.slot(id)
		if got, ref := b.violatingLoad(se), b.refViolatingLoad(se); got != ref {
			t.Fatalf("op %d: violatingLoad(%d) = %p, reference %p", op, id, got, ref)
		}
	}
	if n := b.loadTail - b.loadHead; n != uint64(len(loads)) {
		t.Fatalf("op %d: load ring holds %d ids, window %d loads", op, n, len(loads))
	}
	for k, id := range loads {
		if got := b.loads[(b.loadHead+uint64(k))&b.mask]; got != id {
			t.Fatalf("op %d: load ring slot %d = %d, window load %d", op, k, got, id)
		}
	}
	for _, id := range loads {
		u := &b.slot(id).u
		if got, ref := b.forwardableStore(id, u), b.refForwardableStore(id, u); got != ref {
			t.Fatalf("op %d: forwardableStore(%d) = %v, reference %v", op, id, got, ref)
		}
	}
	for _, pc := range storePCs {
		got, ok := b.pendingStore(pc)
		ref, rok := b.refPendingStore(pc)
		if got != ref || ok != rok {
			t.Fatalf("op %d: pendingStore(%v) = %d %v, reference %d %v", op, pc, got, ok, ref, rok)
		}
	}
}

// TestWindowScansMatchReference drives a backend with a random stream of
// loads, stores, ALU ops and branches of two sources each, on the correct
// and the wrong path, with random squashes. Its phases fill the window
// until Accept refuses uops, and a few store PCs and 8-byte slots make
// forwarding, the dependence filter and order violations all fire. After
// every operation the store and load rings must be exactly the window's
// stores and loads; forwarding, the filter's store search and every
// store's order-violation search must answer as the window scans do; and
// the RAT, the pending counts, the dependence lists and the ready list
// must be what the old squash's full rebuild derives from the window. In
// every cycle, the stores that complete must raise exactly the
// memory-order flushes the whole-window scan finds.
func TestWindowScansMatchReference(t *testing.T) {
	tb := newBench()
	b := tb.b
	r := xrand.New(0x5703)
	storePCs := []isa.Addr{0x2000, 0x2004, 0x2008}
	loadPCs := []isa.Addr{0x3000, 0x3004, 0x3008}
	const ops = 200_000
	maxOcc, refused := 0, 0
	// Coverage of the squash's repair: edges unlinked from surviving
	// producers, and RAT mappings restored to a survivor or, for a writer
	// that has committed since, to none.
	unlinked, restored, restoredNone := 0, 0, 0
	for op := 0; op < ops; op++ {
		// Alternate phases that drain the window and phases that fill it.
		accept := 60
		if op/5000%2 == 1 {
			accept = 85
		}
		switch roll := r.Intn(100); {
		case roll < accept:
			var si *program.Static
			addr := isa.Addr(0x8000 + 8*r.Intn(6) + r.Intn(8))
			dest := isa.Reg(1 + r.Intn(8))
			src, src2 := isa.Reg(r.Intn(9)), isa.Reg(r.Intn(9))
			switch c := r.Intn(10); {
			case c < 3:
				si = st(storePCs[r.Intn(len(storePCs))], isa.Store, 0, src, src2)
			case c < 6:
				si = st(loadPCs[r.Intn(len(loadPCs))], isa.Load, dest, src, src2)
			case c < 7:
				si = st(0x4000, isa.CondBranch, 0, src, src2)
			default:
				si = st(0x5000, isa.ALU, dest, src, src2)
			}
			u := tb.mk(si)
			u.MemAddr = addr
			u.WrongPath = r.Bool(0.2)
			if !b.Accept(u) {
				refused++
			}
		case roll < 97:
			// Each correct-path store that completes this cycle must flag
			// the load the whole-window scan finds, and nothing else may
			// raise a memory-order flush.
			var want, got []uint64
			for k := b.storeHead; k < b.storeTail; k++ {
				e := b.slot(b.stores[k&b.mask])
				if e.state == stIssued && e.doneAt == tb.now && !e.u.WrongPath {
					if l := b.refViolatingLoad(e); l != nil {
						want = append(want, l.id)
					}
				}
			}
			tb.step()
			for res := b.OldestResolution(); res != nil; res = b.OldestResolution() {
				if res.Kind == uop.FlushMemOrder {
					got = append(got, res.ID)
				}
				b.PopResolution()
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: completing stores flagged loads %v, reference %v", op, got, want)
			}
		default:
			if n := b.Occupancy(); n > 0 {
				boundary := b.HeadID() + uint64(r.Intn(n))
				for id := boundary; id < b.NextID(); id++ {
					e := b.slot(id)
					if e.state == stWaiting {
						for _, pid := range e.srcProd {
							if pid >= int64(b.HeadID()) && uint64(pid) < boundary && b.slot(uint64(pid)).state != stDone {
								unlinked++
							}
						}
					}
					if e.dest != isa.RegZero && e.prevRAT >= 0 {
						if uint64(e.prevRAT) < b.HeadID() {
							restoredNone++
						} else {
							restored++
						}
					}
				}
				b.SquashFrom(boundary)
			}
		}
		checkWindow(t, b, op, storePCs)
		checkRepair(t, b, op)
		maxOcc = max(maxOcc, b.Occupancy())
	}
	if refused == 0 {
		t.Errorf("no Accept was refused (most %d in flight): the stream never fills a window resource", maxOcc)
	}
	if b.ForwardedLoads == 0 || b.LoadViolations == 0 || b.mdp.Hits == 0 {
		t.Errorf("forwarded %d, violations %d, filter hits %d: the stream does not exercise every scan",
			b.ForwardedLoads, b.LoadViolations, b.mdp.Hits)
	}
	if unlinked == 0 || restored == 0 || restoredNone == 0 {
		t.Errorf("squashes unlinked %d edges and restored %d mappings to survivors and %d to none: the stream does not exercise the repair",
			unlinked, restored, restoredNone)
	}
}
