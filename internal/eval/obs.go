package eval

import (
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
)

// NewProbe builds a pipeline.Probe whose observers are histograms on reg,
// named for the paper's front-end distributions:
//
//	elf_flush_recovery_cycles   flush applied -> next commit
//	elf_faq_occupancy_blocks    FAQ depth, sampled every 64 cycles
//	elf_coupled_residency_cycles  EnterCoupled -> switch back to decoupled
//	elf_resync_drain_cycles     resync prepare -> actual mode switch
//
// Registration is idempotent, so calling NewProbe repeatedly against one
// registry (e.g. once per elfd job) accumulates into the same series.
func NewProbe(reg *obs.Registry) *pipeline.Probe {
	return &pipeline.Probe{
		FlushRecovery: reg.Histogram("elf_flush_recovery_cycles",
			"Cycles from a pipeline flush to the next instruction commit.",
			obs.ExpBuckets(4, 2, 10)),
		FAQOccupancy: reg.Histogram("elf_faq_occupancy_blocks",
			"Fetch address queue occupancy in blocks, sampled periodically.",
			obs.LinearBuckets(0, 4, 9)),
		CoupledResidency: reg.Histogram("elf_coupled_residency_cycles",
			"Cycles spent in coupled mode per coupled period.",
			obs.ExpBuckets(8, 2, 12)),
		ResyncDrain: reg.Histogram("elf_resync_drain_cycles",
			"Cycles from resync-prepare to the coupled->decoupled switch.",
			obs.ExpBuckets(1, 2, 10)),
	}
}
