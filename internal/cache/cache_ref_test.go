package cache

import (
	"testing"

	"elfetch/internal/isa"
	"elfetch/internal/xrand"
)

// refCache is the reference model of a Cache: the same per-set age
// permutation, but finding set and tag with two divisions by the set
// count, which Cache replaced with a mask and a shift, keeping a valid
// flag beside each tag, which Cache folds into the tag, and looking up
// and filling in two set scans, which Cache's Access does in one. The
// test below drives both with the same operations and requires the same
// answers.
type refCache struct {
	sets  int
	ways  int
	shift uint
	tags  []uint64
	valid []bool
	age   []uint8 // 0 = MRU
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	lines := sizeBytes / lineBytes
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c := &refCache{sets: lines / ways, ways: ways, shift: shift,
		tags:  make([]uint64, lines),
		valid: make([]bool, lines),
		age:   make([]uint8, lines),
	}
	for i := range c.age {
		c.age[i] = uint8(i % ways)
	}
	return c
}

func (c *refCache) setAndTag(addr isa.Addr) (int, uint64) {
	line := uint64(addr) >> c.shift
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// Access looks addr up, updating LRU; it does not fill.
func (c *refCache) Access(addr isa.Addr) bool {
	s, tag := c.setAndTag(addr)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(s, w)
			return true
		}
	}
	return false
}

func (c *refCache) Probe(addr isa.Addr) bool {
	s, tag := c.setAndTag(addr)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr (LRU victim), marking it MRU.
func (c *refCache) Fill(addr isa.Addr) {
	s, tag := c.setAndTag(addr)
	base := s * c.ways
	victim, worst := 0, uint8(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.touch(s, w)
			return
		}
		if !c.valid[i] {
			victim, worst = w, 255
			continue
		}
		if c.age[i] >= worst && worst != 255 {
			victim, worst = w, c.age[i]
		}
	}
	i := base + victim
	c.tags[i] = tag
	c.valid[i] = true
	c.touch(s, victim)
}

func (c *refCache) touch(s, w int) {
	base := s * c.ways
	old := c.age[base+w]
	for i := 0; i < c.ways; i++ {
		if c.age[base+i] < old {
			c.age[base+i]++
		}
	}
	c.age[base+w] = 0
}

// TestCacheMatchesDivisionReference drives every level of NewHierarchy and
// the division reference of the same geometry with the same 1M operations
// over an address range of about three times the level's capacity. Access
// is the reference's Access followed, on a miss, by its Fill; Fill is the
// reference's Probe and Fill; Install its Probe and, on a miss, its Fill.
// Every answer and both counters must agree.
func TestCacheMatchesDivisionReference(t *testing.T) {
	levels := []struct {
		sizeBytes, ways, lineBytes int
	}{
		{24 << 10, 3, 64},   // L0I
		{64 << 10, 8, 64},   // L1I
		{32 << 10, 8, 64},   // L1D
		{512 << 10, 8, 128}, // L2
		{16 << 20, 16, 128}, // L3
	}
	h := NewHierarchy()
	built := []*Cache{h.L0I, h.L1I, h.L1D, h.L2, h.L3}
	const ops = 1_000_000
	for li, lv := range levels {
		name := built[li].Name()
		t.Run(name, func(t *testing.T) {
			if got := built[li]; got.ways != lv.ways || got.lineBytes != lv.lineBytes || len(got.keys)*lv.lineBytes != lv.sizeBytes {
				t.Fatalf("NewHierarchy's %s is not %d B / %d-way / %d B lines", name, lv.sizeBytes, lv.ways, lv.lineBytes)
			}
			c := NewCache(name, lv.sizeBytes, lv.ways, lv.lineBytes)
			ref := newRefCache(lv.sizeBytes, lv.ways, lv.lineBytes)
			lines := lv.sizeBytes / lv.lineBytes
			r := xrand.New(0xCAC0 + uint64(li))
			var accesses, misses uint64
			for op := 0; op < ops; op++ {
				// Half the draws favour low lines, so hot lines hit while
				// the rest of the range keeps evicting.
				span := 3 * lines
				if r.Bool(0.5) {
					span = 1 + r.Intn(span)
				}
				addr := isa.Addr(0x1000_0000 + uint64(r.Intn(span))*uint64(lv.lineBytes) + uint64(r.Intn(lv.lineBytes)))
				var got, want bool
				switch roll := r.Intn(10); {
				case roll < 3:
					got, want = c.Fill(addr), ref.Probe(addr)
					ref.Fill(addr)
				case roll < 4:
					got, want = c.Install(addr), ref.Probe(addr)
					if !want {
						ref.Fill(addr)
					}
				case roll < 5:
					got, want = c.Probe(addr), ref.Probe(addr)
				default:
					got, want = c.Access(addr), ref.Access(addr)
					accesses++
					if !want {
						misses++
						ref.Fill(addr)
					}
				}
				if got != want {
					t.Fatalf("op %d: %v answered %v, reference %v", op, addr, got, want)
				}
			}
			if c.Accesses != accesses || c.Misses != misses {
				t.Fatalf("counted %d accesses and %d misses, reference %d and %d", c.Accesses, c.Misses, accesses, misses)
			}
			if hits := accesses - misses; hits < accesses/10 || hits > accesses*9/10 {
				t.Errorf("%d hits in %d accesses: the address range does not exercise both hits and evictions", hits, accesses)
			}
		})
	}
}
