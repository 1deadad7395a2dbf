package btb

import (
	"testing"

	"elfetch/internal/isa"
)

func newDefault() *BTB { return New(DefaultConfig()) }

// resident returns the entry starting at pc and the fastest level holding
// it, read through each bank's find: unlike Lookup it promotes nothing and
// changes no LRU stamp or statistic.
func resident(b *BTB, pc isa.Addr) (Entry, Level) {
	for l, bk := range []*bank{b.l0, b.l1, b.l2} {
		if bk == nil {
			continue
		}
		if i := bk.find(pc); i >= 0 {
			return bk.entries[i], Level(l)
		}
	}
	return Entry{}, Miss
}

func entryAt(start isa.Addr, count uint8) Entry {
	return Entry{Start: start, Count: count}
}

func TestInstallAndLookupPromotes(t *testing.T) {
	b := newDefault()
	e := entryAt(0x1000, 8)
	b.Install(e)
	// First lookup: L1 hit (install goes to L1+L2), promotes to L0.
	got, lvl := b.Lookup(0x1000)
	if lvl != L1 || got.Start != 0x1000 {
		t.Fatalf("first lookup level = %v, want L1", lvl)
	}
	got, lvl = b.Lookup(0x1000)
	if lvl != L0 {
		t.Fatalf("second lookup level = %v, want L0 (promoted)", lvl)
	}
	if got.Count != 8 {
		t.Errorf("entry content lost: %+v", got)
	}
}

func TestLookupMiss(t *testing.T) {
	b := newDefault()
	if _, lvl := b.Lookup(0x9999000); lvl != Miss {
		t.Fatalf("level = %v, want Miss", lvl)
	}
	if b.Stats.Misses != 1 || b.Stats.Lookups != 1 {
		t.Errorf("stats = %+v", b.Stats)
	}
}

func TestL0CapacityEviction(t *testing.T) {
	b := newDefault()
	// Install and touch 30 distinct entries; L0 holds 24.
	for i := 0; i < 30; i++ {
		pc := isa.Addr(0x1000 + i*64)
		b.Install(entryAt(pc, 16))
		b.Lookup(pc) // promote to L0
	}
	// The most recent is in L0, the oldest is not.
	if _, lvl := b.Lookup(0x1000 + 29*64); lvl != L0 {
		t.Errorf("most recent entry level = %v, want L0", lvl)
	}
	if _, lvl := b.Lookup(0x1000); lvl == L0 {
		t.Error("oldest entry still in 24-entry L0 after 30 inserts")
	}
}

func TestL1FallsBackToL2(t *testing.T) {
	b := newDefault()
	// Flood one L1 set: L1 has 64 sets × 4 ways; entries 64 sets apart
	// collide. After 5 inserts the first is L1-evicted but L2-resident.
	stride := 64 * isa.InstBytes
	for i := 0; i < 5; i++ {
		b.Install(entryAt(isa.Addr(0x4000+i*stride), 4))
	}
	if _, lvl := resident(b, 0x4000); lvl != L2 {
		t.Errorf("evicted-from-L1 entry level = %v, want L2", lvl)
	}
}

func TestInstallRefreshesResidentL0(t *testing.T) {
	b := newDefault()
	b.Install(entryAt(0x3000, 16))
	b.Lookup(0x3000) // promote to L0
	if _, lvl := resident(b, 0x3000); lvl != L0 {
		t.Fatal("setup: entry not in L0")
	}
	amended := entryAt(0x3000, 7)
	b.Install(amended)
	got, lvl := resident(b, 0x3000)
	if lvl != L0 || got.Count != 7 {
		t.Errorf("L0 not refreshed: lvl=%v count=%d", lvl, got.Count)
	}
}

func TestNoL0Config(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L0Entries = 0
	b := New(cfg)
	b.Install(entryAt(0x1000, 4))
	for i := 0; i < 3; i++ {
		if _, lvl := b.Lookup(0x1000); lvl != L1 {
			t.Fatalf("lookup %d level = %v, want L1 (no L0 configured)", i, lvl)
		}
	}
}

func TestHitRate(t *testing.T) {
	b := newDefault()
	b.Install(entryAt(0x1000, 4))
	b.Lookup(0x1000) // L1
	b.Lookup(0x1000) // L0
	b.Lookup(0x2000) // miss
	if got := b.Stats.HitRate(L0); got != 1.0/3 {
		t.Errorf("L0 hit rate = %v, want 1/3", got)
	}
	if got := b.Stats.HitRate(L1); got != 1.0/3 {
		t.Errorf("L1 hit rate = %v, want 1/3", got)
	}
}

func TestEntryFallThrough(t *testing.T) {
	e := entryAt(0x1000, 10)
	if e.FallThrough() != 0x1000+10*isa.InstBytes {
		t.Errorf("FallThrough = %v", e.FallThrough())
	}
}
