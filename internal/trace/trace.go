// Package trace turns a static program into its dynamic instruction stream.
//
// The simulator is oracle-driven (DESIGN.md §7): an Oracle walks the
// program's architecturally correct path, producing one Dyn record per
// retired-path instruction. The pipeline model fetches *speculatively* —
// possibly down wrong paths — and binds fetched slots to oracle records only
// while it is on the correct path. A Stream wraps the Oracle with a ring
// buffer so the pipeline can re-fetch already-generated records after a
// flush (e.g. a memory-order violation squashes younger correct-path
// instructions, which must be fetched again) without rewinding oracle state.
//
// Wrong-path instructions are synthesized by a Synth, which walks the same
// static code with private scratch state: they have classes, register
// operands, and memory addresses (so they pollute caches and occupy pipeline
// resources — required for the paper's wrong-path findings) but never retire.
package trace

import (
	"fmt"

	"elfetch/internal/isa"
	"elfetch/internal/program"
)

// Dyn is one dynamic instruction on the architecturally correct path.
type Dyn struct {
	// Seq is the position in the correct-path stream, starting at 0.
	Seq uint64
	// PC is the instruction address.
	PC isa.Addr
	// SI is the static instruction.
	SI *program.Static
	// Taken is the branch outcome (true for every taken control transfer,
	// including unconditional ones; false for non-branches).
	Taken bool
	// NextPC is the address of the next correct-path instruction.
	NextPC isa.Addr
	// MemAddr is the effective address of a load or store.
	MemAddr isa.Addr
}

// Oracle walks the correct path of a program. It never rewinds; callers that
// need replay use Stream.
type Oracle struct {
	prog  *program.Program
	pc    isa.Addr
	stack []isa.Addr
	state []program.State
	env   program.Env
	seq   uint64

	// Restarts counts how many times the walker fell off the program
	// (return with empty stack, or unmapped PC) and was reset to the
	// entry point. Well-formed workloads never restart.
	Restarts uint64
}

// MaxCallDepth bounds the oracle call stack; recursion beyond this resets
// the walker (workloads bound their recursion well below this).
const MaxCallDepth = 1 << 16

// NewOracle returns an oracle positioned at the program entry.
func NewOracle(p *program.Program) *Oracle {
	return &Oracle{
		prog:  p,
		pc:    p.Entry,
		state: make([]program.State, p.NumStates),
	}
}

// GHR exposes the oracle's behaviour-model history, for tests.
func (o *Oracle) GHR() uint64 { return o.env.GHR }

// Depth returns the current call depth.
func (o *Oracle) Depth() int { return len(o.stack) }

// Step produces the next correct-path instruction into d.
func (o *Oracle) Step(d *Dyn) {
	si := o.prog.At(o.pc)
	if si == nil {
		// Fell off the image: restart (documented escape hatch; real
		// workloads are infinite loops and never get here).
		o.Restarts++
		o.pc = o.prog.Entry
		o.stack = o.stack[:0]
		si = o.prog.MustAt(o.pc)
	}
	o.env.PC = uint64(o.pc)

	d.Seq = o.seq
	d.PC = o.pc
	d.SI = si
	d.Taken = false
	d.MemAddr = 0
	next := o.pc.Next()

	var st *program.State
	if si.StateID >= 0 {
		st = &o.state[si.StateID]
	}

	switch si.Class {
	case isa.CondBranch:
		taken := si.Behavior.Taken(st, &o.env)
		o.env.GHR = o.env.GHR<<1 | b2u(taken)
		d.Taken = taken
		if taken {
			next = si.Target
		}
	case isa.Jump:
		d.Taken = true
		next = si.Target
	case isa.Call:
		d.Taken = true
		next = si.Target
		o.push(o.pc.Next())
	case isa.Ret:
		d.Taken = true
		if n := len(o.stack); n > 0 {
			next = o.stack[n-1]
			o.stack = o.stack[:n-1]
		} else {
			o.Restarts++
			next = o.prog.Entry
		}
	case isa.IndirectBranch:
		d.Taken = true
		next = si.Targets[si.TargetSel.NextTarget(st, &o.env, len(si.Targets))]
	case isa.IndirectCall:
		d.Taken = true
		next = si.Targets[si.TargetSel.NextTarget(st, &o.env, len(si.Targets))]
		o.push(o.pc.Next())
	case isa.Load, isa.Store:
		d.MemAddr = si.Mem.NextAddr(st, &o.env)
	}

	d.NextPC = next
	o.pc = next
	o.seq++
}

func (o *Oracle) push(ra isa.Addr) {
	if len(o.stack) >= MaxCallDepth {
		o.Restarts++
		o.stack = o.stack[:0]
	}
	o.stack = append(o.stack, ra)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Stream buffers oracle output so the pipeline can fetch the same record
// more than once (after squashes). Records with Seq >= released floor stay
// addressable.
type Stream struct {
	o    *Oracle
	buf  []Dyn
	mask uint64
	// floor is the oldest seq that may still be requested (everything
	// below it has committed).
	floor uint64
	// next is the first seq not yet generated.
	next uint64
}

// DefaultStreamCap comfortably exceeds the maximum in-flight window
// (256-entry ROB + front-end queues).
const DefaultStreamCap = 1 << 13

// NewStream wraps an oracle for the given program.
func NewStream(p *program.Program) *Stream {
	return &Stream{o: NewOracle(p), buf: make([]Dyn, DefaultStreamCap), mask: DefaultStreamCap - 1}
}

// Oracle exposes the underlying oracle (for restart accounting).
func (s *Stream) Oracle() *Oracle { return s.o }

// Get returns the correct-path record at seq, generating forward as needed.
// seq must be >= the release floor and within capacity of it.
func (s *Stream) Get(seq uint64) *Dyn {
	if seq < s.floor {
		//lint:allow panic window invariant: Release only advances past retired records
		panic(fmt.Sprintf("trace: Get(%d) below release floor %d", seq, s.floor))
	}
	if seq-s.floor >= uint64(len(s.buf)) {
		//lint:allow panic window invariant: the in-flight window is bounded by the ROB
		panic(fmt.Sprintf("trace: Get(%d) exceeds window (floor %d, cap %d)", seq, s.floor, len(s.buf)))
	}
	for s.next <= seq {
		s.o.Step(&s.buf[s.next&s.mask])
		s.next++
	}
	return &s.buf[seq&s.mask]
}

// Release declares every record with Seq < seq committed; their buffer slots
// may be reused. Release floors are monotone.
func (s *Stream) Release(seq uint64) {
	if seq > s.floor {
		s.floor = seq
	}
}

// Synth synthesizes wrong-path instruction attributes. It shares the static
// code but owns scratch state, so wrong-path walks never perturb the oracle.
// Direction/target *choices* on the wrong path are made by the front-end's
// predictors; Synth only supplies what "execution" of a wrong-path
// instruction needs: a memory address, and a resolution outcome that by
// construction equals the prediction (wrong-path branches never trigger
// nested flushes — the standard trace-driven simplification).
type Synth struct {
	prog  *program.Program
	state []program.State
	env   program.Env
}

// NewSynth returns a wrong-path synthesizer for the program.
func NewSynth(p *program.Program) *Synth {
	return &Synth{prog: p, state: make([]program.State, p.NumStates)}
}

// At returns the static at pc, or nil outside the image.
func (s *Synth) At(pc isa.Addr) *program.Static { return s.prog.At(pc) }

// MemAddr produces a plausible effective address for a wrong-path memory
// instruction.
func (s *Synth) MemAddr(si *program.Static) isa.Addr {
	if si.Mem == nil {
		return 0
	}
	s.env.PC = uint64(si.PC) ^ 0x5a5a // decorrelate from correct path
	var st *program.State
	if si.StateID >= 0 {
		st = &s.state[si.StateID]
	} else {
		st = new(program.State)
	}
	return si.Mem.NextAddr(st, &s.env)
}
