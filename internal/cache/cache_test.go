package cache

import (
	"testing"
	"testing/quick"

	"elfetch/internal/isa"
)

func TestAccessMissThenFillHits(t *testing.T) {
	c := NewCache("t", 1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold hit")
	}
	if !c.Probe(0x1000) {
		t.Fatal("a demand miss did not fill its line")
	}
	if !c.Fill(0x1000) {
		t.Fatal("Fill of a resident line reported it absent")
	}
	if !c.Access(0x1000) {
		t.Fatal("miss after fill")
	}
	if !c.Access(0x1030) {
		t.Fatal("same line treated as different")
	}
	if c.MissRate() != 1.0/3 {
		t.Errorf("miss rate = %v, want 1/3", c.MissRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 8 sets => same set every 512 bytes.
	c := NewCache("t", 1<<10, 2, 64)
	c.Fill(0x0000)
	c.Fill(0x0200)
	c.Access(0x0000) // make 0x0000 MRU
	c.Fill(0x0400)   // evicts LRU = 0x0200
	if !c.Probe(0x0000) {
		t.Error("MRU line evicted")
	}
	if c.Probe(0x0200) {
		t.Error("LRU line survived")
	}
	if !c.Probe(0x0400) {
		t.Error("filled line absent")
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	c := NewCache("t", 1<<10, 2, 64)
	c.Fill(0x0000)
	c.Fill(0x0200)
	// Probing 0x0000 must NOT refresh it.
	for i := 0; i < 10; i++ {
		c.Probe(0x0000)
	}
	c.Fill(0x0400) // LRU should still be 0x0000
	if c.Probe(0x0000) {
		t.Error("Probe refreshed LRU state")
	}
	if c.Accesses != 0 {
		t.Error("Probe counted as access")
	}
}

func TestFillIsIdempotentOnResidentLine(t *testing.T) {
	c := NewCache("t", 1<<10, 2, 64)
	c.Fill(0x0000)
	c.Fill(0x0200)
	c.Fill(0x0200) // refresh, not duplicate
	c.Fill(0x0400) // evicts 0x0000
	if c.Probe(0x0000) {
		t.Error("double-fill duplicated a line instead of refreshing")
	}
	if !c.Probe(0x0200) || !c.Probe(0x0400) {
		t.Error("resident lines lost")
	}
}

func TestCapacityWorksetFits(t *testing.T) {
	c := NewCache("t", 8<<10, 4, 64) // 128 lines
	f := func(seed uint8) bool {
		// Any 32-line working set must fit (128-line cache, 32 sets).
		base := isa.Addr(seed) * 64
		for i := 0; i < 32; i++ {
			c.Fill(base + isa.Addr(i*64))
		}
		for i := 0; i < 32; i++ {
			if !c.Probe(base + isa.Addr(i*64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInterleaveAlternatesByLine(t *testing.T) {
	c := NewCache("t", 24<<10, 3, 64)
	if c.Interleave(0x0000) == c.Interleave(0x0040) {
		t.Error("adjacent lines map to the same interleave bank")
	}
	if c.Interleave(0x0000) != c.Interleave(0x0080) {
		t.Error("lines two apart map to different banks")
	}
	if c.Interleave(0x0000) != c.Interleave(0x003C) {
		t.Error("same line, different banks")
	}
}

func TestHierarchyFetchLatencies(t *testing.T) {
	h := NewHierarchy()
	pc := isa.Addr(0x10000)
	if lat := h.FetchLatency(pc); lat != h.Lat.Mem {
		t.Errorf("cold fetch latency = %d, want %d", lat, h.Lat.Mem)
	}
	if lat := h.FetchLatency(pc); lat != h.Lat.L0I {
		t.Errorf("warm fetch latency = %d, want %d", lat, h.Lat.L0I)
	}
}

func TestHierarchyL1IBackstop(t *testing.T) {
	h := NewHierarchy()
	pc := isa.Addr(0x10000)
	h.FetchLatency(pc)
	// Evict from L0I (24KB/64B = 384 lines, 3-way, 128 sets: lines 128
	// apart collide; 3 conflicting fills evict pc's line).
	for i := 1; i <= 3; i++ {
		h.L0I.Fill(pc + isa.Addr(i*128*64))
	}
	if h.L0I.Probe(pc) {
		t.Skip("eviction pattern did not land; geometry changed")
	}
	if lat := h.FetchLatency(pc); lat != h.Lat.L1I {
		t.Errorf("L1I-resident fetch latency = %d, want %d", lat, h.Lat.L1I)
	}
}

func TestPrefetchIInstallsIntoL0I(t *testing.T) {
	h := NewHierarchy()
	pc := isa.Addr(0x20000)
	lat := h.PrefetchI(pc)
	if lat != h.Lat.Mem {
		t.Errorf("cold prefetch cost = %d, want %d", lat, h.Lat.Mem)
	}
	if got := h.FetchLatency(pc); got != h.Lat.L0I {
		t.Errorf("post-prefetch fetch latency = %d, want %d", got, h.Lat.L0I)
	}
	if again := h.PrefetchI(pc); again != 0 {
		t.Errorf("prefetch of resident line = %d, want 0", again)
	}
}

func TestDataLatencyLevels(t *testing.T) {
	h := NewHierarchy()
	a := isa.Addr(0x1000000)
	if lat := h.DataLatency(0x40, a); lat != h.Lat.Mem {
		t.Errorf("cold = %d, want %d", lat, h.Lat.Mem)
	}
	if lat := h.DataLatency(0x40, a); lat != h.Lat.L1D {
		t.Errorf("warm = %d, want %d", lat, h.Lat.L1D)
	}
}

func TestStridePrefetcherHidesStreamMisses(t *testing.T) {
	h := NewHierarchy()
	pc := isa.Addr(0x40)
	misses := 0
	const n = 200
	for i := 0; i < n; i++ {
		addr := isa.Addr(0x2000000 + i*64)
		if h.DataLatency(pc, addr) > h.Lat.L1D {
			misses++
		}
	}
	if h.DPrefetch.Issued == 0 {
		t.Fatal("stride prefetcher never fired on a pure stream")
	}
	if misses > n/3 {
		t.Errorf("stream missed %d of %d with stride prefetcher", misses, n)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	h := NewHierarchy()
	pc := isa.Addr(0x44)
	addrs := []isa.Addr{0x100000, 0x900040, 0x230080, 0x7777c0, 0x345000}
	for i := 0; i < 50; i++ {
		h.DataLatency(pc, addrs[i%len(addrs)]*2+isa.Addr(i*12345)&^7)
	}
	if h.DPrefetch.Issued > 10 {
		t.Errorf("prefetcher fired %d times on random traffic", h.DPrefetch.Issued)
	}
}

func TestWrongPathDataPollutes(t *testing.T) {
	h := NewHierarchy()
	// Fill a victim line, then wrong-path accesses to its set evict it.
	victim := isa.Addr(0x3000000)
	h.DataLatency(0x40, victim)
	if !h.L1D.Probe(victim) {
		t.Fatal("setup: victim not resident")
	}
	// L1D: 32KB/64B/8-way = 64 sets; same set every 4096 bytes.
	for i := 1; i <= 8; i++ {
		h.WrongPathData(victim + isa.Addr(i*4096))
	}
	if h.L1D.Probe(victim) {
		t.Error("wrong-path traffic failed to evict (pollution not modelled)")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inconsistent geometry did not panic")
		}
	}()
	NewCache("bad", 100, 3, 64)
}

func TestMSHRBoundQueuesMisses(t *testing.T) {
	h := NewHierarchy()
	h.MaxDMSHR = 2
	h.SetClock(0)
	// Three cold misses in the same cycle: the third must queue behind
	// the earliest of the first two.
	l1 := h.DataLatency(0x40, 0x9000000)
	l2 := h.DataLatency(0x44, 0x9100000)
	l3 := h.DataLatency(0x48, 0x9200000)
	if l1 != h.Lat.Mem || l2 != h.Lat.Mem {
		t.Fatalf("first misses: %d %d, want %d", l1, l2, h.Lat.Mem)
	}
	if l3 <= h.Lat.Mem {
		t.Errorf("third concurrent miss latency %d — MSHR bound not applied", l3)
	}
	if h.DMSHRQueued != 1 {
		t.Errorf("queued count = %d, want 1", h.DMSHRQueued)
	}
	// After the in-flight misses complete, new misses are unqueued.
	h.SetClock(uint64(h.Lat.Mem) * 3)
	if l := h.DataLatency(0x4c, 0x9300000); l != h.Lat.Mem {
		t.Errorf("post-drain miss latency %d, want %d", l, h.Lat.Mem)
	}
}

func TestMSHRDisabled(t *testing.T) {
	h := NewHierarchy()
	h.MaxDMSHR = 0
	h.DPrefetch = nil // keep the stride prefetcher from hiding the misses
	h.SetClock(0)
	for i := 0; i < 40; i++ {
		if l := h.DataLatency(0x40, isa.Addr(0xA000000+i*0x10000)); l != h.Lat.Mem {
			t.Fatalf("latency %d with MSHR bound disabled", l)
		}
	}
	if h.DMSHRQueued != 0 {
		t.Error("queued counter moved while disabled")
	}
}
