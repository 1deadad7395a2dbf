// Package cache models the memory hierarchy of Table II: a two-level
// instruction path (L0I 24KB/3-way/1-cycle with 2-way set interleaving,
// L1I 64KB/8-way/3-cycle), an L1D (32KB/8-way/3-cycle load-to-use), a
// unified L2 (512KB/8-way/13-cycle), a unified L3 (16MB/16-way/35-cycle)
// and 250-cycle memory, plus an advanced stride-based data prefetcher.
//
// Caches are tag-only (the simulator never needs data contents) with true
// LRU. Latencies are returned to the pipeline, which models overlap itself;
// fills are immediate. Data misses contend for the Hierarchy's MSHRs
// (MaxDMSHR), and the front-end separately bounds in-flight instruction
// prefetches per Table II.
package cache

import "elfetch/internal/isa"

// Cache is one tag-only set-associative cache with LRU replacement. The
// set count is a power of two, so a mask finds the set and a shift the tag.
// A way holds its line's tag plus one, so 0 marks an empty way.
// Replacement keeps a one-byte age per way (a per-set permutation, 0 =
// MRU): an 8-byte last-touch stamp, as the BTB uses, would cost about 1 MB
// more per machine, most of it in the 16 MB L3 (DESIGN.md §17).
type Cache struct {
	name      string
	ways      int
	lineBytes int
	shift     uint     // log2 of the line size
	setMask   uint64   // sets-1
	setBits   uint     // log2 of the set count
	keys      []uint64 // tag+1 per way, 0 = empty
	age       []uint8  // 0 = MRU

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
		keys: make([]uint64, lines),
		age:  make([]uint8, lines),
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

// find returns the first way of addr's set, the index of the way holding
// addr's line (-1 if none), the set's last empty way (-1 if none; only
// meaningful on a miss) and the line's key.
func (c *Cache) find(addr isa.Addr) (base, hit, empty int, key uint64) {
	line := uint64(addr) >> c.shift
	base = int(line&c.setMask) * c.ways
	key = line>>c.setBits + 1
	empty = -1
	for i, k := range c.keys[base : base+c.ways] {
		switch k {
		case key:
			return base, base + i, empty, key
		case 0:
			empty = base + i
		}
	}
	return base, -1, empty, key
}

// Access is a demand lookup of addr: it updates LRU and statistics, and on
// a miss fills the line. It reports a hit. A hierarchy may fill a level as
// it misses, before looking up the next, because the levels share no
// state: no level's fill changes another's lookup.
func (c *Cache) Access(addr isa.Addr) bool {
	c.Accesses++
	base, i, empty, key := c.find(addr)
	if i >= 0 {
		c.touch(base, i)
		return true
	}
	c.Misses++
	c.fill(base, empty, key)
	return false
}

// Probe looks up addr without LRU or statistics side effects.
func (c *Cache) Probe(addr isa.Addr) bool {
	_, i, _, _ := c.find(addr)
	return i >= 0
}

// Fill installs the line containing addr, or refreshes it if resident,
// marking it MRU without statistics. It reports whether the line was
// resident.
func (c *Cache) Fill(addr isa.Addr) bool {
	base, i, empty, key := c.find(addr)
	if i >= 0 {
		c.touch(base, i)
		return true
	}
	c.fill(base, empty, key)
	return false
}

// Install installs the line containing addr as MRU unless it is resident,
// in which case nothing changes. It reports whether the line was resident.
func (c *Cache) Install(addr isa.Addr) bool {
	base, i, empty, key := c.find(addr)
	if i >= 0 {
		return true
	}
	c.fill(base, empty, key)
	return false
}

// fill puts key into the set at base, in its last empty way or else in its
// oldest way, and marks that way MRU.
func (c *Cache) fill(base, empty int, key uint64) {
	i := empty
	if i < 0 {
		i = base
		for w := base + 1; w < base+c.ways; w++ {
			if c.age[w] >= c.age[i] {
				i = w
			}
		}
	}
	c.keys[i] = key
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
