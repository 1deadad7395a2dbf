package pipeline

import (
	"fmt"
	"io"

	"elfetch/internal/isa"
	"elfetch/internal/uop"
)

// Tracer records per-instruction pipeline timestamps (fetch, decode,
// rename, complete, retire/squash) — the raw material for pipeline
// visualisation (cmd/elfview renders it as a text pipeview). It is nil by
// default; attach with Machine.AttachTracer. Recording is bounded: events
// live in a ring of Max slots, and once it is full each fetch overwrites
// the oldest event, whether it retired, was squashed or is still in
// flight, so the tracer always holds the newest Max fetches.
type Tracer struct {
	// Max bounds retained events (0 = 4096).
	Max int

	events []TraceEvent
	oldest int            // slot of the oldest event once the ring is full
	open   map[uint64]int // FetchID -> slot in events
}

// TraceEvent is one instruction's lifetime.
type TraceEvent struct {
	FetchID   uint64
	Seq       uint64
	PC        isa.Addr
	Class     isa.Class
	WrongPath bool
	Coupled   bool

	Fetched  uint64
	Decoded  uint64
	Renamed  uint64
	Done     uint64
	Retired  uint64 // 0 if squashed
	Squashed bool
}

// NewTracer returns an empty tracer.
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = 4096
	}
	return &Tracer{Max: max, open: make(map[uint64]int)}
}

// AttachTracer enables event recording on the machine.
func (m *Machine) AttachTracer(t *Tracer) { m.tracer = t }

// Events returns a copy of the recorded events in fetch order.
func (t *Tracer) Events() []TraceEvent {
	out := make([]TraceEvent, 0, len(t.events))
	out = append(out, t.events[t.oldest:]...)
	return append(out, t.events[:t.oldest]...)
}

func (t *Tracer) fetched(u *uop.Uop, now uint64) {
	i := len(t.events)
	if i < t.Max {
		t.events = append(t.events, TraceEvent{})
	} else {
		i = t.oldest
		delete(t.open, t.events[i].FetchID)
		t.oldest = (i + 1) % len(t.events)
	}
	t.events[i] = TraceEvent{
		FetchID: u.FetchID, Seq: u.Seq, PC: u.PC, Class: u.SI.Class,
		WrongPath: u.WrongPath, Coupled: u.Coupled, Fetched: now,
	}
	t.open[u.FetchID] = i
}

func (t *Tracer) mark(fid uint64, f func(*TraceEvent), now uint64) {
	if i, ok := t.open[fid]; ok {
		f(&t.events[i])
	}
	_ = now
}

// Decoded/Renamed/Done/Retired/Squashed marks.
func (t *Tracer) decoded(fid, now uint64) {
	t.mark(fid, func(e *TraceEvent) { e.Decoded = now }, now)
}
func (t *Tracer) renamed(fid, now uint64) {
	t.mark(fid, func(e *TraceEvent) { e.Renamed = now }, now)
}
func (t *Tracer) retired(fid, now uint64) {
	t.mark(fid, func(e *TraceEvent) {
		e.Retired = now
		delete(t.open, e.FetchID)
	}, now)
}

// CloseSquashed marks every still-open event below the retirement horizon
// as squashed (called lazily from the viewer; squash plumbing does not
// need cycle accuracy).
func (t *Tracer) CloseSquashed() {
	for fid, i := range t.open {
		e := &t.events[i]
		if e.Retired == 0 {
			e.Squashed = true
		}
		delete(t.open, fid)
	}
}

// WritePipeview renders a gem5-pipeview-flavoured text chart: one line per
// instruction, one column per cycle between the window's bounds.
//
//	F = fetched, D = decoded, R = renamed, C = retired, x = squashed
func (t *Tracer) WritePipeview(w io.Writer, maxRows int) error {
	t.CloseSquashed()
	ev := t.Events()
	if maxRows > 0 && len(ev) > maxRows {
		ev = ev[len(ev)-maxRows:]
	}
	if len(ev) == 0 {
		_, err := fmt.Fprintln(w, "(no events recorded)")
		return err
	}
	lo := ev[0].Fetched
	hi := lo
	for _, e := range ev {
		if e.Retired > hi {
			hi = e.Retired
		}
		if e.Renamed > hi {
			hi = e.Renamed
		}
		if e.Fetched > hi {
			hi = e.Fetched
		}
	}
	span := hi - lo + 1
	const maxSpan = 160
	if span > maxSpan {
		span = maxSpan
	}
	for _, e := range ev {
		line := make([]byte, span)
		for i := range line {
			line[i] = '.'
		}
		put := func(cyc uint64, ch byte) {
			if cyc == 0 || cyc < lo {
				return
			}
			if off := cyc - lo; off < span {
				line[off] = ch
			}
		}
		put(e.Fetched, 'F')
		put(e.Decoded, 'D')
		put(e.Renamed, 'R')
		put(e.Retired, 'C')
		tag := " "
		switch {
		case e.Squashed && e.WrongPath:
			tag = "w"
		case e.Squashed:
			tag = "x"
		case e.Coupled:
			tag = "c"
		}
		if _, err := fmt.Fprintf(w, "%8d %-7v %v %s |%s|\n",
			e.Seq, e.Class, e.PC, tag, line); err != nil {
			return err
		}
	}
	return nil
}
