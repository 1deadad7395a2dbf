// Package frontend implements the decoupled fetching (DCF) infrastructure
// of Section III and Figure 1: the BP1/BP2 address-generation stages built
// on the 3-level BTB and the TAGE/ITTAGE/BTC/RAS predictors, and the Fetch
// Address Queue that decouples them from instruction retrieval.
package frontend

import (
	"elfetch/internal/bpred"
	"elfetch/internal/btb"
	"elfetch/internal/isa"
)

// BlockBranch is one predicted branch inside an FAQ block, in program
// order. It carries everything needed later: the update payloads for the
// predictors and the checkpoints to restore on a flush through this branch
// (the paper's checkpoint-queue payload, Section IV-D1).
type BlockBranch struct {
	// Offset of the branch from the block start, in instructions.
	Offset int
	Class  isa.Class
	// PredTaken is the predicted direction (true for unconditional).
	PredTaken bool
	// Target is the predicted target when PredTaken.
	Target isa.Addr
	// Tage/IT are the predictor read-outs to hand back at update time.
	Tage bpred.TAGEPred
	IT   bpred.ITTAGEPred
	// HistCp/RASCp snapshot speculative state *before* this branch.
	HistCp bpred.History
	RASCp  bpred.RASCheckpoint
	// HasTage/HasIT say which payloads are valid.
	HasTage, HasIT bool
}

// FAQBlock is one Fetch Address Queue entry: a run of sequential
// instructions, the branches predicted inside it, and the next fetch PC.
type FAQBlock struct {
	// Start is the first instruction address.
	Start isa.Addr
	// Count is the number of sequential instructions, >= 1.
	Count int
	// NumBr and Brs list predicted branches inside the block.
	NumBr int
	Brs   [btb.MaxBranches]BlockBranch
	// TermTaken: the block ends because its last listed branch is
	// predicted taken (the "cause of termination" the L-ELF resync
	// comparison needs, Section IV-B1).
	TermTaken bool
	// NextPC is the predicted address of the instruction after this
	// block (branch target or fallthrough).
	NextPC isa.Addr
	// SeqMiss marks blocks generated while missing the BTB: pure
	// sequential guesses that decode will likely have to correct.
	SeqMiss bool
	// Level is the BTB level that served the block (btb.Miss for
	// SeqMiss blocks).
	Level btb.Level
	// ReadyAt is the cycle the block reaches the FAQ stage and becomes
	// consumable by fetch (BP1→FAQ is 2 cycles after generation).
	ReadyAt uint64
}

// End returns the address one past the block.
func (b *FAQBlock) End() isa.Addr { return b.Start.Plus(b.Count) }

// FAQ is the fetch address queue (Table II: 32-entry FIFO).
type FAQ struct {
	blocks []FAQBlock
	head   int
	n      int
	hw     int // high-water mark of n since construction/ResetHighWater
}

// NewFAQ returns a queue with the given capacity.
func NewFAQ(capacity int) *FAQ {
	return &FAQ{blocks: make([]FAQBlock, capacity)}
}

// Len returns the number of queued blocks.
func (q *FAQ) Len() int { return q.n }

// Cap returns the capacity.
func (q *FAQ) Cap() int { return len(q.blocks) }

// Full reports whether another block can be pushed.
func (q *FAQ) Full() bool { return q.n == len(q.blocks) }

// Push enqueues a cleared block and returns it for the caller to fill in
// place; the queue must not be full.
func (q *FAQ) Push() *FAQBlock {
	if q.Full() {
		//lint:allow panic ring invariant: the DCF checks Full before pushing; overflow means a modeling bug
		panic("frontend: FAQ overflow")
	}
	b := &q.blocks[(q.head+q.n)%len(q.blocks)]
	*b = FAQBlock{}
	q.n++
	if q.n > q.hw {
		q.hw = q.n
	}
	return b
}

// HighWater returns the deepest occupancy observed since construction (or
// the last ResetHighWater) — the summary companion to the per-cycle
// occupancy distribution a pipeline.Probe samples.
func (q *FAQ) HighWater() int { return q.hw }

// ResetHighWater restarts high-water tracking (post-warmup measurement).
func (q *FAQ) ResetHighWater() { q.hw = q.n }

// Head returns the oldest block, or nil if empty.
func (q *FAQ) Head() *FAQBlock {
	if q.n == 0 {
		return nil
	}
	return &q.blocks[q.head]
}

// At returns the i-th oldest block (0 = head); nil if out of range. The
// FAQ prefetcher walks blocks older-to-younger with it.
func (q *FAQ) At(i int) *FAQBlock {
	if i < 0 || i >= q.n {
		return nil
	}
	return &q.blocks[(q.head+i)%len(q.blocks)]
}

// Pop removes the oldest block.
func (q *FAQ) Pop() {
	if q.n == 0 {
		//lint:allow panic ring invariant: fetch checks Empty before popping; underflow means a modeling bug
		panic("frontend: FAQ underflow")
	}
	q.head = (q.head + 1) % len(q.blocks)
	q.n--
}

// Clear empties the queue (front-end flush).
func (q *FAQ) Clear() {
	q.head, q.n = 0, 0
}
