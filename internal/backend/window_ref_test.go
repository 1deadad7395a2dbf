package backend

import (
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

// checkWindow compares the store ring, each entry's copied class and
// destination, forwarding and the dependence filter's store search with
// their window-scan references.
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
			t.Fatalf("op %d: pendingStore(%#x) = %d %v, reference %d %v", op, pc, got, ok, ref, rok)
		}
	}
}

// TestWindowScansMatchReference drives a backend with a random stream of
// loads, stores, ALU ops and branches, on the correct and the wrong path,
// with random squashes. Its phases fill the window until Accept refuses
// uops, and a few store PCs and 8-byte slots make forwarding, the
// dependence filter and order violations all fire. After every operation
// the store ring must be exactly the window's stores, and forwarding and
// the filter's store search must answer as the window scans do.
func TestWindowScansMatchReference(t *testing.T) {
	tb := newBench()
	b := tb.b
	r := xrand.New(0x5703)
	storePCs := []isa.Addr{0x2000, 0x2004, 0x2008}
	loadPCs := []isa.Addr{0x3000, 0x3004, 0x3008}
	const ops = 200_000
	maxOcc, refused := 0, 0
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
			src := isa.Reg(r.Intn(9))
			switch c := r.Intn(10); {
			case c < 3:
				si = st(storePCs[r.Intn(len(storePCs))], isa.Store, 0, src, 0)
			case c < 6:
				si = st(loadPCs[r.Intn(len(loadPCs))], isa.Load, dest, src, 0)
			case c < 7:
				si = st(0x4000, isa.CondBranch, 0, src, 0)
			default:
				si = st(0x5000, isa.ALU, dest, src, 0)
			}
			u := tb.mk(si)
			u.MemAddr = addr
			u.WrongPath = r.Bool(0.2)
			if !b.Accept(u) {
				refused++
			}
		case roll < 97:
			tb.step()
			for b.OldestResolution() != nil {
				b.PopResolution()
			}
		default:
			if n := b.Occupancy(); n > 0 {
				b.SquashFrom(b.HeadID() + uint64(r.Intn(n)))
			}
		}
		checkWindow(t, b, op, storePCs)
		maxOcc = max(maxOcc, b.Occupancy())
	}
	if refused == 0 {
		t.Errorf("no Accept was refused (most %d in flight): the stream never fills a window resource", maxOcc)
	}
	if b.ForwardedLoads == 0 || b.LoadViolations == 0 || b.mdp.Hits == 0 {
		t.Errorf("forwarded %d, violations %d, filter hits %d: the stream does not exercise every scan",
			b.ForwardedLoads, b.LoadViolations, b.mdp.Hits)
	}
}
