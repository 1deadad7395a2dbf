package btb

import "elfetch/internal/isa"

// Builder establishes BTB entries non-speculatively from the retired
// instruction stream (Section III-A). The pipeline feeds it every retiring
// instruction in order; completed entries are installed into the hierarchy.
//
// Slot discipline: only "observed taken before" conditionals occupy one of
// the MaxBranches slots; a conditional that has never retired taken is
// invisible to the BTB. Unconditional branches always take a slot and
// terminate the entry. An entry also ends when a third slot would be
// needed (this is the "split" case: the follow-on instructions start a
// fresh entry) or at MaxInsts.
type Builder struct {
	btb *BTB

	cur    Entry
	active bool

	// everTaken tracks which static conditionals have retired taken —
	// the "observed taken before" predicate. (Hardware derives this from
	// the BTB content itself; the simulator keeps it exact.)
	everTaken *addrSet

	// boundaries are addresses where an entry must start: front-end
	// resteer targets. Without them, a flush target that lands mid-entry
	// would miss the start-indexed BTB on every recurrence.
	boundaries *addrSet

	// Installed counts completed entries, for stats/tests.
	Installed uint64
}

// NewBuilder returns a builder installing into btb.
func NewBuilder(b *BTB) *Builder {
	return &Builder{
		btb:        b,
		everTaken:  newAddrSet(1 << 10),
		boundaries: newAddrSet(1 << 10),
	}
}

// ForceBoundary records a front-end resteer target: the next time the
// retire stream reaches pc, the open entry closes so an entry starts
// exactly at pc (fetch-region alignment).
func (b *Builder) ForceBoundary(pc isa.Addr) {
	if b.boundaries.Len() > 1<<16 {
		b.boundaries.Reset()
	}
	b.boundaries.Add(pc)
}

// Retire feeds one retiring instruction: its address, class, branch outcome
// and — for direct branches — its (decoded) target.
func (b *Builder) Retire(pc isa.Addr, class isa.Class, taken bool, target isa.Addr) {
	if b.active && b.boundaries.Contains(pc) && b.cur.Start != pc {
		b.close(TermFallthrough)
	}
	if b.active && b.cur.Start.Plus(int(b.cur.Count)) != pc {
		// Retire stream jumped (taken branch closed the entry last
		// call, or a flush restarted the stream): finish the open
		// entry as-is.
		b.close(TermFallthrough)
	}
	if !b.active {
		b.open(pc)
	}

	switch {
	case class == isa.CondBranch:
		if taken {
			b.everTaken.Add(pc)
		}
		if b.everTaken.Contains(pc) {
			if b.cur.NumBranches == MaxBranches {
				// Needs a third slot: split — close here and
				// restart at the branch itself.
				b.close(TermFallthrough)
				b.open(pc)
			}
			b.addBranch(pc, class, target)
		}
		b.cur.Count++
		if taken {
			// Dynamic redirect: the sequential walk ends here.
			b.close(TermFallthrough)
		} else if b.cur.Count == MaxInsts {
			b.close(TermFallthrough)
		}

	case class.IsBranch(): // unconditional: direct or indirect
		if b.cur.NumBranches == MaxBranches {
			b.close(TermFallthrough)
			b.open(pc)
		}
		if class.IsDirect() {
			b.addBranch(pc, class, target)
		} else {
			b.addBranch(pc, class, 0) // indirect: no stored target
		}
		b.cur.Count++
		b.close(TermUncond)

	default:
		b.cur.Count++
		if b.cur.Count == MaxInsts {
			b.close(TermFallthrough)
		}
	}
}

func (b *Builder) open(pc isa.Addr) {
	b.cur = Entry{Start: pc}
	b.active = true
}

func (b *Builder) addBranch(pc isa.Addr, class isa.Class, target isa.Addr) {
	b.cur.Branches[b.cur.NumBranches] = Branch{
		Offset: uint8(b.cur.Start.InstsTo(pc)),
		Class:  class,
		Target: target,
	}
	b.cur.NumBranches++
}

func (b *Builder) close(term TermKind) {
	if !b.active || b.cur.Count == 0 {
		b.active = false
		return
	}
	b.cur.Term = term
	b.btb.Install(b.cur)
	b.Installed++
	b.active = false
}
