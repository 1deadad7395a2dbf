package cache

import (
	"slices"
	"testing"

	"elfetch/internal/isa"
	"elfetch/internal/xrand"
)

// refMSHR is the reference model of the data MSHRs: the completion times
// of the in-flight misses, compacted on every clock tick, and a full scan
// for the earliest one whenever all registers are busy.
type refMSHR struct {
	max, mem int
	times    []uint64
	now      uint64
	queued   uint64
}

func (m *refMSHR) setClock(now uint64) {
	m.now = now
	kept := m.times[:0]
	for _, t := range m.times {
		if t > now {
			kept = append(kept, t)
		}
	}
	m.times = kept
}

func (m *refMSHR) delay(lat int) int {
	if m.max <= 0 {
		return 0
	}
	if len(m.times) < m.max {
		m.times = append(m.times, m.now+uint64(lat))
		return 0
	}
	earliest := m.times[0]
	for _, t := range m.times {
		earliest = min(earliest, t)
	}
	extra := 0
	if earliest > m.now {
		extra = int(earliest - m.now)
	}
	extra = min(extra, m.mem)
	for i, t := range m.times {
		if t == earliest {
			m.times[i] = m.now + uint64(extra+lat)
			break
		}
	}
	m.queued++
	return extra
}

// TestMSHRMatchesPerCycleReference drives a hierarchy with random clock
// steps and demand and wrong-path data accesses, at 16, 4 and 1 MSHRs.
// A second hierarchy without an MSHR bound sees the same accesses, so its
// latencies are the cache levels' alone, and the reference MSHRs add
// their queuing delay on every L1D miss. Every latency, the queued count
// and the outstanding miss times (in order) must match, and the
// hierarchy's earliest time must be their minimum.
func TestMSHRMatchesPerCycleReference(t *testing.T) {
	for _, regs := range []int{16, 4, 1} {
		h, plain := NewHierarchy(), NewHierarchy()
		h.MaxDMSHR, plain.MaxDMSHR = regs, 0
		ref := &refMSHR{max: regs, mem: h.Lat.Mem}
		r := xrand.New(0x3547 + uint64(regs))
		now, queuedSeen := uint64(0), false
		for op := 0; op < 200_000; op++ {
			switch roll := r.Intn(10); {
			case roll < 4:
				// Mostly one cycle, sometimes a jump past every miss.
				step := uint64(r.Intn(2))
				if r.Bool(0.02) {
					step = uint64(r.Intn(600))
				}
				now += step
				h.SetClock(now)
				ref.setClock(now)
			default:
				pc := isa.Addr(0x400 + 4*r.Intn(8))
				addr := isa.Addr(0x4000_0000 + r.Intn(1<<24))
				var got, lat int
				if r.Bool(0.2) {
					got, lat = h.WrongPathData(addr), plain.WrongPathData(addr)
				} else {
					got, lat = h.DataLatency(pc, addr), plain.DataLatency(pc, addr)
				}
				want := lat
				if lat != h.Lat.L1D {
					want += ref.delay(lat)
				}
				if got != want {
					t.Fatalf("%d MSHRs, op %d: latency %d, reference %d (levels %d)", regs, op, got, want, lat)
				}
			}
			if h.DMSHRQueued != ref.queued {
				t.Fatalf("%d MSHRs, op %d: queued %d, reference %d", regs, op, h.DMSHRQueued, ref.queued)
			}
			if !slices.Equal(h.dMSHR, ref.times) {
				t.Fatalf("%d MSHRs, op %d: outstanding %v, reference %v", regs, op, h.dMSHR, ref.times)
			}
			earliest := ^uint64(0)
			for _, d := range h.dMSHR {
				earliest = min(earliest, d)
			}
			if h.earliest != earliest {
				t.Fatalf("%d MSHRs, op %d: earliest %d, outstanding %v", regs, op, h.earliest, h.dMSHR)
			}
			queuedSeen = queuedSeen || ref.queued > 0
		}
		if !queuedSeen {
			t.Errorf("%d MSHRs: no miss ever queued", regs)
		}
	}
}
