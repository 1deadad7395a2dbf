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
	"fmt"

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

// bank is one set-associative level. A lookup scans the set's slice of
// starts, a dense copy of each way's Entry.Start, so it reads 8 bytes per
// way instead of a whole Entry. Replacement is LRU by last-touch stamp: a
// way's stamp is the bank clock at its last touch, and 0 means the way was
// never filled. A victim is the way with the oldest stamp, the last one on
// ties; that picks the last empty way while one is left, and otherwise the
// least recently used way, as a per-set age permutation would (DESIGN.md
// §17, "Per-access cost of the modeled tables").
type bank struct {
	setMask uint64
	ways    int
	starts  []isa.Addr // sets × ways
	entries []Entry    // sets × ways
	stamp   []uint64   // sets × ways; 0 = empty
	clock   uint64
}

// setCount returns the number of sets of a level of the given entries and
// ways, or 0 when a mask cannot index it: entries and ways must be
// positive, entries divisible by ways, and the set count a power of two.
func setCount(entries, ways int) int {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return 0
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return 0
	}
	return sets
}

// newBank builds a level of the given entries and ways.
func newBank(entries, ways int) *bank {
	sets := setCount(entries, ways)
	if sets == 0 {
		//lint:allow panic Config.Validate (via pipeline.Config.Validate) rejects this geometry before a machine is built; reaching here is a modeling bug
		panic(fmt.Sprintf("btb: %d entries in %d ways is not a power-of-two set count", entries, ways))
	}
	return &bank{setMask: uint64(sets - 1), ways: ways,
		starts:  make([]isa.Addr, entries),
		entries: make([]Entry, entries),
		stamp:   make([]uint64, entries),
	}
}

// find returns the index of the filled way holding the entry that starts
// at pc, or -1.
func (b *bank) find(pc isa.Addr) int {
	base := int(uint64(pc)>>2&b.setMask) * b.ways
	for w, s := range b.starts[base : base+b.ways] {
		if s == pc && b.stamp[base+w] != 0 {
			return base + w
		}
	}
	return -1
}

// touch marks way i most-recently used.
func (b *bank) touch(i int) {
	b.clock++
	b.stamp[i] = b.clock
}

// lookup returns the entry starting exactly at pc.
func (b *bank) lookup(pc isa.Addr) (*Entry, bool) {
	i := b.find(pc)
	if i < 0 {
		return nil, false
	}
	b.touch(i)
	return &b.entries[i], true
}

// insert installs (or replaces) the entry for e.Start.
func (b *bank) insert(e Entry) {
	i := b.find(e.Start)
	if i < 0 {
		base := int(uint64(e.Start)>>2&b.setMask) * b.ways
		i = base
		for w := base + 1; w < base+b.ways; w++ {
			if b.stamp[w] <= b.stamp[i] {
				i = w
			}
		}
		b.starts[i] = e.Start
	}
	b.entries[i] = e
	b.touch(i)
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

// MaxEntries bounds each level's entry count at 16 times Table II's 4K
// L2. New gives every entry a start, an entry and a stamp, so the bound
// caps what one BTB allocates.
const MaxEntries = 1 << 16

// Validate rejects a geometry New cannot build. L0Entries is 0 (no L0) or
// positive; L1 and L2 need positive entries and ways, entries divisible by
// ways, and a power-of-two set count, so that a mask finds the set. No
// level holds more than MaxEntries.
func (c Config) Validate() error {
	if c.L0Entries < 0 {
		return fmt.Errorf("btb: L0Entries %d is negative (0 disables the L0)", c.L0Entries)
	}
	for _, l := range []struct {
		name    string
		entries int
	}{{"L0", c.L0Entries}, {"L1", c.L1Entries}, {"L2", c.L2Entries}} {
		if l.entries > MaxEntries {
			return fmt.Errorf("btb: %s of %d entries above %d", l.name, l.entries, MaxEntries)
		}
	}
	if setCount(c.L1Entries, c.L1Ways) == 0 {
		return fmt.Errorf("btb: L1 of %d entries in %d ways: want positive entries and ways and a power-of-two set count", c.L1Entries, c.L1Ways)
	}
	if setCount(c.L2Entries, c.L2Ways) == 0 {
		return fmt.Errorf("btb: L2 of %d entries in %d ways: want positive entries and ways and a power-of-two set count", c.L2Entries, c.L2Ways)
	}
	return nil
}

// New builds the hierarchy. A zero L0Entries disables that level (for the
// L0-ablation bench). New panics on a geometry Validate rejects.
func New(cfg Config) *BTB {
	b := &BTB{}
	if cfg.L0Entries != 0 {
		b.l0 = newBank(cfg.L0Entries, cfg.L0Entries)
	}
	b.l1 = newBank(cfg.L1Entries, cfg.L1Ways)
	b.l2 = newBank(cfg.L2Entries, cfg.L2Ways)
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

// Install establishes a retired entry into L2 and L1 (Section III-A: BTB
// entries are established non-speculatively as instructions retire). A
// same-start entry already resident in L0 is refreshed in place so the
// fast level does not serve amended layouts forever; absent entries are
// not pulled into L0 (promotion happens on lookup).
func (b *BTB) Install(e Entry) {
	b.l2.insert(e)
	b.l1.insert(e)
	if b.l0 != nil {
		if i := b.l0.find(e.Start); i >= 0 {
			b.l0.entries[i] = e
			b.l0.touch(i)
		}
	}
}
