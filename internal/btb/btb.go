// Package btb implements the three-level Branch Target Buffer hierarchy of
// Table II and the entry format of Section III-A:
//
//   - an entry is indexed by the address of its first instruction and covers
//     up to MaxInsts (16) sequential instructions;
//   - it tracks up to MaxBranches (2) "observed taken before" branches, with
//     targets when direct;
//   - an entry ends at an unconditional branch, at the point a third
//     taken-observed conditional would be needed, or at 16 instructions;
//   - entries are established non-speculatively at retire (a Builder
//     accumulates the retired stream), and an entry is amended — possibly
//     split in two — when a never-observed-taken conditional turns taken.
//
// Hierarchy (Table II): L0 24-entry fully associative (0-cycle: a hit can
// drive the next lookup with no bubble), L1 256-entry 4-way (1 cycle),
// L2 4K-entry 8-way (3 cycles).
package btb

import (
	"elfetch/internal/isa"
)

// MaxInsts is the maximum sequential instructions per entry.
const MaxInsts = 16

// MaxBranches is the maximum tracked branches per entry.
const MaxBranches = 2

// Branch is one tracked branch within an entry.
type Branch struct {
	// Offset is the branch's position from the entry start, in
	// instructions.
	Offset uint8
	// Class is the branch type (the fetcher needs it to route the
	// prediction: conditional → TAGE, return → RAS, indirect → BTC/ITTAGE).
	Class isa.Class
	// Target is the stored target for direct branches (0 for indirect:
	// the BTB does not store indirect targets; the target predictor does).
	Target isa.Addr
}

// TermKind says why an entry ended — the fetcher's sequencing depends on it.
type TermKind uint8

const (
	// TermFallthrough: ended by the 16-instruction limit or branch-slot
	// exhaustion; the next BPred PC is Start + Count insts.
	TermFallthrough TermKind = iota
	// TermUncond: ended by an unconditional branch (the last tracked
	// branch).
	TermUncond
)

// Entry is one BTB entry.
type Entry struct {
	// Start is the address of the first covered instruction (the tag).
	Start isa.Addr
	// Count is the number of covered instructions, 1..MaxInsts.
	Count uint8
	// NumBranches is the number of valid Branches.
	NumBranches uint8
	// Branches are the tracked branches in program order.
	Branches [MaxBranches]Branch
	// Term is the termination cause.
	Term TermKind
}

// FallThrough returns the address just past the entry.
func (e *Entry) FallThrough() isa.Addr { return e.Start.Plus(int(e.Count)) }

// Level identifies which BTB level served a lookup.
type Level int8

const (
	// Miss means no level had the entry.
	Miss Level = -1
	// L0, L1, L2 are the hierarchy levels.
	L0 Level = 0
	L1 Level = 1
	L2 Level = 2
)

func (l Level) String() string {
	switch l {
	case L0:
		return "L0"
	case L1:
		return "L1"
	case L2:
		return "L2"
	default:
		return "miss"
	}
}

// bank is one set-associative level.
type bank struct {
	sets    int
	ways    int
	entries []Entry // sets × ways
	valid   []bool
	lru     []uint8 // per-way age within a set; 0 = MRU
}

func newBank(sets, ways int) *bank {
	b := &bank{sets: sets, ways: ways,
		entries: make([]Entry, sets*ways),
		valid:   make([]bool, sets*ways),
		lru:     make([]uint8, sets*ways),
	}
	for i := range b.lru {
		b.lru[i] = uint8(i % ways)
	}
	return b
}

func (b *bank) setOf(pc isa.Addr) int {
	return int(uint64(pc) >> 2 % uint64(b.sets))
}

// lookup returns the entry starting exactly at pc.
func (b *bank) lookup(pc isa.Addr) (*Entry, bool) {
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

// touch marks way w of set s most-recently used.
func (b *bank) touch(s, w int) {
	base := s * b.ways
	old := b.lru[base+w]
	for i := 0; i < b.ways; i++ {
		if b.lru[base+i] < old {
			b.lru[base+i]++
		}
	}
	b.lru[base+w] = 0
}

// insert installs (or replaces) the entry for e.Start.
func (b *bank) insert(e Entry) {
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

// Stats counts per-level lookup outcomes.
type Stats struct {
	Lookups uint64
	Hits    [3]uint64
	Misses  uint64
}

// HitRate returns the hit fraction of level l over all lookups.
func (s *Stats) HitRate(l Level) float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits[l]) / float64(s.Lookups)
}

// BTB is the three-level hierarchy.
type BTB struct {
	l0, l1, l2 *bank
	// Stats accumulates lookup outcomes.
	Stats Stats
}

// Config sizes the hierarchy.
type Config struct {
	L0Entries         int // fully associative
	L1Entries, L1Ways int
	L2Entries, L2Ways int
}

// DefaultConfig is Table II: L0 24-entry FA, L1 256-entry 4-way, L2
// 4K-entry 8-way.
func DefaultConfig() Config {
	return Config{L0Entries: 24, L1Entries: 256, L1Ways: 4, L2Entries: 4096, L2Ways: 8}
}

// New builds the hierarchy. A zero L0Entries disables that level (for the
// L0-ablation bench).
func New(cfg Config) *BTB {
	b := &BTB{}
	if cfg.L0Entries > 0 {
		b.l0 = newBank(1, cfg.L0Entries)
	}
	b.l1 = newBank(cfg.L1Entries/cfg.L1Ways, cfg.L1Ways)
	b.l2 = newBank(cfg.L2Entries/cfg.L2Ways, cfg.L2Ways)
	return b
}

// Lookup searches the hierarchy for the entry starting at pc. On an outer-
// level hit the entry is promoted into the faster levels (so the hot
// working set migrates toward L0). The returned entry is a copy — levels
// may replace their slots at any time.
func (b *BTB) Lookup(pc isa.Addr) (Entry, Level) {
	b.Stats.Lookups++
	if b.l0 != nil {
		if e, ok := b.l0.lookup(pc); ok {
			b.Stats.Hits[L0]++
			return *e, L0
		}
	}
	if e, ok := b.l1.lookup(pc); ok {
		b.Stats.Hits[L1]++
		cp := *e
		if b.l0 != nil {
			b.l0.insert(cp)
		}
		return cp, L1
	}
	if e, ok := b.l2.lookup(pc); ok {
		b.Stats.Hits[L2]++
		cp := *e
		b.l1.insert(cp)
		if b.l0 != nil {
			b.l0.insert(cp)
		}
		return cp, L2
	}
	b.Stats.Misses++
	return Entry{}, Miss
}

// Probe is Lookup without promotion or statistics (for tests/tools).
func (b *BTB) Probe(pc isa.Addr) (Entry, Level) {
	if b.l0 != nil {
		if e, ok := b.l0.lookup(pc); ok {
			return *e, L0
		}
	}
	if e, ok := b.l1.lookup(pc); ok {
		return *e, L1
	}
	if e, ok := b.l2.lookup(pc); ok {
		return *e, L2
	}
	return Entry{}, Miss
}

// Install establishes a retired entry into L2 and L1 (Section III-A: BTB
// entries are established non-speculatively as instructions retire). A
// same-start entry already resident in L0 is refreshed in place so the
// fast level does not serve amended layouts forever; absent entries are
// not pulled into L0 (promotion happens on lookup).
func (b *BTB) Install(e Entry) {
	b.l2.insert(e)
	b.l1.insert(e)
	if b.l0 != nil {
		if _, ok := b.l0.lookup(e.Start); ok {
			b.l0.insert(e)
		}
	}
}
