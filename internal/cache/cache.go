// Package cache models the memory hierarchy of Table II: a two-level
// instruction path (L0I 24KB/3-way/1-cycle with 2-way set interleaving,
// L1I 64KB/8-way/3-cycle), an L1D (32KB/8-way/3-cycle load-to-use), a
// unified L2 (512KB/8-way/13-cycle), a unified L3 (16MB/16-way/35-cycle)
// and 250-cycle memory, plus an advanced stride-based data prefetcher.
//
// Caches are tag-only (the simulator never needs data contents) with true
// LRU. Latencies are returned to the pipeline, which models overlap itself;
// fills are immediate (no MSHR contention model) — the front-end separately
// bounds in-flight instruction prefetches per Table II.
package cache

import "elfetch/internal/isa"

// Cache is one tag-only set-associative cache with LRU replacement. The
// set count is a power of two, so a mask finds the set and a shift the tag.
// Replacement keeps a one-byte age per way (a per-set permutation, 0 =
// MRU): an 8-byte last-touch stamp, as the BTB uses, would cost about 1 MB
// more per machine, most of it in the 16 MB L3 (DESIGN.md §17).
type Cache struct {
	name      string
	ways      int
	lineBytes int
	shift     uint   // log2 of the line size
	setMask   uint64 // sets-1
	setBits   uint   // log2 of the set count
	tags      []uint64
	valid     []bool
	age       []uint8 // 0 = MRU

	// Stats
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of the given total size. sizeBytes/lineBytes must
// be divisible by ways, and the set count must be a power of two.
func NewCache(name string, sizeBytes, ways, lineBytes int) *Cache {
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets == 0 || lines%ways != 0 || sets&(sets-1) != 0 {
		//lint:allow panic geometry comes from compile-time config tables; an inconsistent one is a modeling bug
		panic("cache: inconsistent geometry for " + name)
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	c := &Cache{
		name: name, ways: ways, lineBytes: lineBytes, shift: shift,
		setMask: uint64(sets - 1), setBits: setBits,
		tags:  make([]uint64, lines),
		valid: make([]bool, lines),
		age:   make([]uint8, lines),
	}
	for i := range c.age {
		c.age[i] = uint8(i % ways)
	}
	return c
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// find returns the first way of addr's set, the index of the valid way
// holding addr's line (-1 if none) and the line's tag.
func (c *Cache) find(addr isa.Addr) (base, hit int, tag uint64) {
	line := uint64(addr) >> c.shift
	base = int(line&c.setMask) * c.ways
	tag = line >> c.setBits
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag && c.valid[i] {
			return base, i, tag
		}
	}
	return base, -1, tag
}

// Access looks up addr, updating LRU and statistics. It does not fill.
func (c *Cache) Access(addr isa.Addr) bool {
	c.Accesses++
	base, i, _ := c.find(addr)
	if i >= 0 {
		c.touch(base, i)
		return true
	}
	c.Misses++
	return false
}

// Probe looks up addr without LRU or statistics side effects.
func (c *Cache) Probe(addr isa.Addr) bool {
	_, i, _ := c.find(addr)
	return i >= 0
}

// Fill installs the line containing addr (LRU victim), marking it MRU. The
// victim is the last invalid way of the set, or else its oldest way.
func (c *Cache) Fill(addr isa.Addr) {
	base, i, tag := c.find(addr)
	if i < 0 {
		i = base
		for w := base; w < base+c.ways; w++ {
			if !c.valid[w] {
				i = w
			} else if c.valid[i] && c.age[w] >= c.age[i] {
				i = w
			}
		}
		c.tags[i] = tag
		c.valid[i] = true
	}
	c.touch(base, i)
}

// touch marks way i (of the set starting at base) most-recently used.
func (c *Cache) touch(base, i int) {
	old := c.age[i]
	ages := c.age[base : base+c.ways]
	for w, a := range ages {
		if a < old {
			ages[w] = a + 1
		}
	}
	c.age[i] = 0
}

// MissRate returns Misses/Accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Interleave returns which of the two L0I set-interleave banks the line of
// addr maps to. The fetcher can fetch across a taken branch in one cycle
// only when branch and target lines map to different banks (Section VI-A,
// [21]).
func (c *Cache) Interleave(addr isa.Addr) int {
	return int(uint64(addr) >> c.shift & 1)
}
