// Package program represents synthetic static programs: a laid-out code image
// of fixed-length instructions organised into functions and basic blocks,
// plus per-instruction behaviour models.
//
// The simulator never executes real binaries (the paper's SPEC and
// proprietary server workloads are unavailable; see DESIGN.md §2). Instead,
// a Program is the static side of a synthetic workload: every conditional
// branch carries a Behavior that generates its taken/not-taken outcome
// stream, every indirect branch a TargetModel, and every memory instruction
// a MemModel generating its address stream. The oracle executor in
// internal/trace walks this structure to produce the dynamic instruction
// stream, and the front-end walks it speculatively down wrong paths.
package program

import (
	"fmt"

	"elfetch/internal/isa"
)

// Static is one static instruction in the code image.
//
// Statics are immutable after Build; all mutable per-instruction execution
// state (loop counters, RNG streams, local histories) lives in a State table
// owned by the walker, indexed by StateID. This separation lets the oracle
// and any number of wrong-path walkers execute the same static code with
// independent state.
type Static struct {
	PC    isa.Addr
	Class isa.Class

	// Dest, Src1, Src2 are architectural register operands. RegZero means
	// "no operand" / no dependence.
	Dest, Src1, Src2 isa.Reg

	// Target is the direct branch target (CondBranch, Jump, Call).
	Target isa.Addr

	// Targets is the possible-target set of an indirect branch, resolved
	// at Build time; TargetSel picks among them.
	Targets   []isa.Addr
	TargetSel TargetModel

	// Behavior generates conditional-branch outcomes.
	Behavior Behavior

	// Mem generates load/store addresses.
	Mem MemModel

	// StateID indexes the walker-owned state table, or -1 if the
	// instruction is stateless.
	StateID int32

	// FuncID identifies the containing function (index into Program.Funcs).
	FuncID int32
}

// IsBranch reports whether the static is any control-flow instruction.
func (s *Static) IsBranch() bool { return s.Class.IsBranch() }

// FallThrough returns the address of the sequential successor.
func (s *Static) FallThrough() isa.Addr { return s.PC.Next() }

// Func is static metadata about one function.
type Func struct {
	Name  string
	Entry isa.Addr
	// End is one past the last instruction of the function.
	End isa.Addr
}

// Size returns the function size in instructions.
func (f *Func) Size() int { return f.Entry.InstsTo(f.End) }

// Program is a laid-out code image.
type Program struct {
	// Base is the address of the first instruction.
	Base isa.Addr
	// Entry is the address execution starts at.
	Entry isa.Addr

	code  []Static
	Funcs []*Func

	// NumStates is the size of the State table a walker must allocate.
	NumStates int
}

// Len returns the number of static instructions in the image.
func (p *Program) Len() int { return len(p.code) }

// End returns one past the last instruction.
func (p *Program) End() isa.Addr { return p.Base.Plus(len(p.code)) }

// At returns the static instruction at pc, or nil if pc is outside the code
// image or unaligned. Wrong-path walkers rely on the nil return to stop at
// the image boundary.
func (p *Program) At(pc isa.Addr) *Static {
	if pc < p.Base || pc%isa.InstBytes != 0 {
		return nil
	}
	i := p.Base.InstsTo(pc)
	if i >= len(p.code) {
		return nil
	}
	return &p.code[i]
}

// MustAt is like At but panics on out-of-image addresses; for tests and
// builders where the address is known valid.
func (p *Program) MustAt(pc isa.Addr) *Static {
	s := p.At(pc)
	if s == nil {
		panic(fmt.Sprintf("program: no instruction at %v", pc))
	}
	return s
}

// FootprintBytes returns the code footprint in bytes, the headline
// "instruction footprint" knob of the server workloads.
func (p *Program) FootprintBytes() int { return len(p.code) * isa.InstBytes }
