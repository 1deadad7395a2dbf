package cache

import (
	"slices"

	"elfetch/internal/isa"
)

// Latencies per Table II, in cycles.
type Latencies struct {
	L0I, L1I, L1D, L2, L3, Mem int
}

// DefaultLatencies is Table II.
func DefaultLatencies() Latencies {
	return Latencies{L0I: 1, L1I: 3, L1D: 3, L2: 13, L3: 35, Mem: 250}
}

// Hierarchy wires the Table II caches together. Inclusive fills: a miss
// serviced at an outer level fills all inner levels on the path.
type Hierarchy struct {
	L0I, L1I, L1D, L2, L3 *Cache
	Lat                   Latencies

	// DPrefetch, if non-nil, observes demand data accesses and issues
	// prefetch fills (the "Advanced Stride-based prefetch" of Table II).
	DPrefetch *StridePrefetcher

	// MaxDMSHR bounds concurrent outstanding data misses (miss-status
	// holding registers). A miss issued while all MSHRs are busy queues
	// behind the earliest completion. 0 disables the bound.
	MaxDMSHR int
	// dMSHR holds the completion times of in-flight data misses
	// relative to the caller-maintained clock (see SetClock), and
	// earliest the smallest of them (^0 when there are none).
	dMSHR    []uint64
	earliest uint64
	now      uint64

	// DMSHRQueued counts accesses delayed by MSHR exhaustion.
	DMSHRQueued uint64
}

// SetClock advances the hierarchy's notion of time (the pipeline calls it
// once per cycle); completed MSHRs free up. Until the earliest miss
// completes, none does, so it only records the time.
func (h *Hierarchy) SetClock(now uint64) {
	h.now = now
	if now < h.earliest {
		return
	}
	kept := h.dMSHR[:0]
	h.earliest = ^uint64(0)
	for _, t := range h.dMSHR {
		if t > now {
			kept = append(kept, t)
			h.earliest = min(h.earliest, t)
		}
	}
	h.dMSHR = kept
}

// mshrDelay reserves an MSHR for a miss of the given latency and returns
// the extra queuing delay (0 when a register is free).
func (h *Hierarchy) mshrDelay(lat int) int {
	if h.MaxDMSHR <= 0 {
		return 0
	}
	extra := 0
	if len(h.dMSHR) >= h.MaxDMSHR {
		// Wait for the earliest in-flight miss to complete.
		if h.earliest > h.now {
			extra = int(h.earliest - h.now)
		}
		if extra > h.Lat.Mem {
			extra = h.Lat.Mem // sanity cap: one full memory round
		}
		// Replace the earliest (it retires as we occupy its slot).
		h.dMSHR[slices.Index(h.dMSHR, h.earliest)] = h.now + uint64(extra+lat)
		h.earliest = slices.Min(h.dMSHR)
		h.DMSHRQueued++
		return extra
	}
	h.dMSHR = append(h.dMSHR, h.now+uint64(lat))
	h.earliest = min(h.earliest, h.now+uint64(lat))
	return 0
}

// NewHierarchy builds the Table II configuration.
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{
		L0I:      NewCache("L0I", 24<<10, 3, 64),
		L1I:      NewCache("L1I", 64<<10, 8, 64),
		L1D:      NewCache("L1D", 32<<10, 8, 64),
		L2:       NewCache("L2", 512<<10, 8, 128),
		L3:       NewCache("L3", 16<<20, 16, 128),
		Lat:      DefaultLatencies(),
		earliest: ^uint64(0),
	}
	h.DPrefetch = NewStridePrefetcher(h)
	h.MaxDMSHR = 16
	return h
}

// FetchLatency performs a demand instruction fetch of the line containing
// pc and returns the access latency in cycles (1 on an L0I hit). Each
// level that misses fills the line as it is looked up.
func (h *Hierarchy) FetchLatency(pc isa.Addr) int {
	switch {
	case h.L0I.Access(pc):
		return h.Lat.L0I
	case h.L1I.Access(pc):
		return h.Lat.L1I
	case h.L2.Access(pc):
		return h.Lat.L2
	case h.L3.Access(pc):
		return h.Lat.L3
	}
	return h.Lat.Mem
}

// PrefetchI prefetches the line containing pc into L1I and L0I (the
// FAQ-driven instruction prefetch of Table II) and returns the cycles the
// fill will take to arrive (0 if already resident in L0I). The line is
// refreshed or installed in L1I and L2, and installed in L3 only when
// neither held it; a resident L3 line is not refreshed.
func (h *Hierarchy) PrefetchI(pc isa.Addr) int {
	if h.L0I.Install(pc) {
		return 0
	}
	inL1I, inL2 := h.L1I.Fill(pc), h.L2.Fill(pc)
	switch {
	case inL1I:
		return h.Lat.L1I
	case inL2:
		return h.Lat.L2
	case h.L3.Install(pc):
		return h.Lat.L3
	}
	return h.Lat.Mem
}

// DataLatency performs a demand load/store access and returns the
// load-to-use latency. Demand accesses train the stride prefetcher.
func (h *Hierarchy) DataLatency(pc, addr isa.Addr) int {
	if h.DPrefetch != nil {
		h.DPrefetch.Observe(pc, addr)
	}
	return h.dataAccess(addr)
}

// WrongPathData performs a wrong-path data access: it disturbs cache state
// exactly like a demand access (pollution is the point — Section VI-B) but
// does not train the prefetcher.
func (h *Hierarchy) WrongPathData(addr isa.Addr) int {
	return h.dataAccess(addr)
}

func (h *Hierarchy) dataAccess(addr isa.Addr) int {
	var lat int
	switch {
	case h.L1D.Access(addr):
		return h.Lat.L1D
	case h.L2.Access(addr):
		lat = h.Lat.L2
	case h.L3.Access(addr):
		lat = h.Lat.L3
	default:
		lat = h.Lat.Mem
	}
	return lat + h.mshrDelay(lat)
}

// StridePrefetcher is a PC-indexed stride detector: two consecutive
// accesses with the same stride from the same load PC trigger prefetches of
// the next lines into L1D/L2.
type StridePrefetcher struct {
	h      *Hierarchy
	table  [256]strideEntry
	Issued uint64
	Degree int // lines ahead to prefetch
}

type strideEntry struct {
	pc     isa.Addr
	last   isa.Addr
	stride int64
	conf   int8
}

// NewStridePrefetcher returns a prefetcher filling into h.
func NewStridePrefetcher(h *Hierarchy) *StridePrefetcher {
	return &StridePrefetcher{h: h, Degree: 2}
}

// Observe trains on a demand access and issues prefetch fills when
// confident.
func (p *StridePrefetcher) Observe(pc, addr isa.Addr) {
	e := &p.table[uint64(pc)>>2&255]
	if e.pc != pc {
		*e = strideEntry{pc: pc, last: addr}
		return
	}
	stride := int64(addr) - int64(e.last)
	e.last = addr
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return
	}
	if e.conf >= 2 {
		next := addr
		for d := 0; d < p.Degree; d++ {
			next = isa.Addr(int64(next) + stride)
			if !p.h.L1D.Install(next) {
				p.h.L2.Fill(next)
				p.Issued++
			}
		}
	}
}
