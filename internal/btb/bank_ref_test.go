package btb

import (
	"testing"

	"elfetch/internal/isa"
	"elfetch/internal/xrand"
)

// refBank is the reference model of a bank: the per-set age permutation
// (0 = MRU) with a division for the set, which bank replaced with a mask,
// a dense start scan and last-touch stamps. The tests below drive both
// with the same operations and require the same answers.
type refBank struct {
	sets    int
	ways    int
	entries []Entry // sets × ways
	valid   []bool
	lru     []uint8 // per-way age within a set; 0 = MRU
}

func newRefBank(sets, ways int) *refBank {
	b := &refBank{sets: sets, ways: ways,
		entries: make([]Entry, sets*ways),
		valid:   make([]bool, sets*ways),
		lru:     make([]uint8, sets*ways),
	}
	for i := range b.lru {
		b.lru[i] = uint8(i % ways)
	}
	return b
}

func (b *refBank) setOf(pc isa.Addr) int {
	return int(uint64(pc) >> 2 % uint64(b.sets))
}

func (b *refBank) lookup(pc isa.Addr) (*Entry, bool) {
	s := b.setOf(pc)
	base := s * b.ways
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.entries[i].Start == pc {
			b.touch(s, w)
			return &b.entries[i], true
		}
	}
	return nil, false
}

func (b *refBank) touch(s, w int) {
	base := s * b.ways
	old := b.lru[base+w]
	for i := 0; i < b.ways; i++ {
		if b.lru[base+i] < old {
			b.lru[base+i]++
		}
	}
	b.lru[base+w] = 0
}

func (b *refBank) insert(e Entry) {
	s := b.setOf(e.Start)
	base := s * b.ways
	victim := 0
	var worst uint8
	for w := 0; w < b.ways; w++ {
		i := base + w
		if b.valid[i] && b.entries[i].Start == e.Start {
			b.entries[i] = e
			b.touch(s, w)
			return
		}
		if !b.valid[i] {
			victim = w
			worst = 255
			continue
		}
		if b.lru[i] >= worst {
			worst = b.lru[i]
			victim = w
		}
	}
	i := base + victim
	b.entries[i] = e
	b.valid[i] = true
	b.touch(s, victim)
}

// refBTB is the hierarchy over reference banks, with the Lookup and
// Install of the age-permutation BTB (Install refreshed a resident L0
// entry with a lookup followed by an insert).
type refBTB struct {
	l0, l1, l2 *refBank
}

func newRefBTB(cfg Config) *refBTB {
	b := &refBTB{}
	if cfg.L0Entries > 0 {
		b.l0 = newRefBank(1, cfg.L0Entries)
	}
	b.l1 = newRefBank(cfg.L1Entries/cfg.L1Ways, cfg.L1Ways)
	b.l2 = newRefBank(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways)
	return b
}

func (b *refBTB) Lookup(pc isa.Addr) (Entry, Level) {
	if b.l0 != nil {
		if e, ok := b.l0.lookup(pc); ok {
			return *e, L0
		}
	}
	if e, ok := b.l1.lookup(pc); ok {
		cp := *e
		if b.l0 != nil {
			b.l0.insert(cp)
		}
		return cp, L1
	}
	if e, ok := b.l2.lookup(pc); ok {
		cp := *e
		b.l1.insert(cp)
		if b.l0 != nil {
			b.l0.insert(cp)
		}
		return cp, L2
	}
	return Entry{}, Miss
}

func (b *refBTB) Install(e Entry) {
	b.l2.insert(e)
	b.l1.insert(e)
	if b.l0 != nil {
		if _, ok := b.l0.lookup(e.Start); ok {
			b.l0.insert(e)
		}
	}
}

// randEntry returns an entry starting at pc whose payload varies, so a
// stale or misplaced entry shows in the comparison.
func randEntry(r *xrand.Rand, pc isa.Addr) Entry {
	e := Entry{Start: pc, Count: uint8(1 + r.Intn(MaxInsts)), Term: TermKind(r.Intn(2))}
	e.NumBranches = uint8(r.Intn(MaxBranches + 1))
	for i := 0; i < int(e.NumBranches); i++ {
		e.Branches[i] = Branch{Offset: uint8(i), Class: isa.CondBranch, Target: isa.Addr(r.Uint64() &^ 3)}
	}
	return e
}

// randPC draws an entry start from a range of about three times capacity
// entries. Half the draws favour low starts, so hot starts hit while the
// rest of the range keeps evicting.
func randPC(r *xrand.Rand, capacity int) isa.Addr {
	span := 3 * capacity
	if r.Bool(0.5) {
		span = 1 + r.Intn(span)
	}
	return isa.Addr(0x40000 + 4*r.Intn(span))
}

// TestBankMatchesAgeReference drives a bank and the age-permutation
// reference with the same 2M lookups and inserts at each level geometry of
// Table II (L0 1×24, L1 64×4, L2 512×8). Every lookup must agree on hit
// or miss and on the entry it returns.
func TestBankMatchesAgeReference(t *testing.T) {
	geoms := []struct {
		name       string
		sets, ways int
	}{
		{"L0 1x24", 1, 24},
		{"L1 64x4", 64, 4},
		{"L2 512x8", 512, 8},
	}
	const ops = 2_000_000
	for gi, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			capacity := g.sets * g.ways
			b, ref := newBank(capacity, g.ways), newRefBank(g.sets, g.ways)
			r := xrand.New(0xB7B0 + uint64(gi))
			hits := 0
			for op := 0; op < ops; op++ {
				pc := randPC(&r, capacity)
				if r.Bool(0.3) {
					e := randEntry(&r, pc)
					b.insert(e)
					ref.insert(e)
					continue
				}
				got, ok := b.lookup(pc)
				want, wok := ref.lookup(pc)
				if ok != wok {
					t.Fatalf("op %d: lookup(%v) hit=%v, reference %v", op, pc, ok, wok)
				}
				if ok {
					hits++
					if *got != *want {
						t.Fatalf("op %d: lookup(%v) = %+v, reference %+v", op, pc, *got, *want)
					}
				}
			}
			lookups := ops * 7 / 10
			if hits < lookups/10 || hits > lookups*9/10 {
				t.Errorf("%d hits in about %d lookups: the address range does not exercise both hits and evictions", hits, lookups)
			}
		})
	}
}

// TestBTBMatchesAgeReference drives the whole hierarchy and a hierarchy of
// reference banks with the same 1M Lookups and Installs, with and without
// the L0, and requires the same level and entry from every Lookup.
func TestBTBMatchesAgeReference(t *testing.T) {
	noL0 := DefaultConfig()
	noL0.L0Entries = 0
	for ci, cfg := range []Config{DefaultConfig(), noL0} {
		b, ref := New(cfg), newRefBTB(cfg)
		r := xrand.New(0xB7B1 + uint64(ci))
		const ops = 1_000_000
		for op := 0; op < ops; op++ {
			pc := randPC(&r, cfg.L2Entries)
			switch roll := r.Intn(10); {
			case roll < 3:
				e := randEntry(&r, pc)
				b.Install(e)
				ref.Install(e)
			default:
				got, lvl := b.Lookup(pc)
				want, wlvl := ref.Lookup(pc)
				if lvl != wlvl || got != want {
					t.Fatalf("cfg %d op %d: Lookup(%v) = %v %+v, reference %v %+v", ci, op, pc, lvl, got, wlvl, want)
				}
			}
		}
		for l := L0; l <= L2; l++ {
			if cfg.L0Entries == 0 && l == L0 {
				continue
			}
			if b.Stats.Hits[l] == 0 {
				t.Errorf("cfg %d: no %v hits in %d operations", ci, l, ops)
			}
		}
	}
}
