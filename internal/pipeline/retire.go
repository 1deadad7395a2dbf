package pipeline

import (
	"elfetch/internal/isa"
)

// retire drains the cycle's committed uops: BTB establishment (Section
// III-A — entries are built non-speculatively at retire), predictor
// training, architectural history/RAS maintenance, statistics, and oracle
// stream release.
func (m *Machine) retire() {
	retired := m.be.DrainRetired()
	if len(retired) == 0 {
		m.quietCycles++
	} else {
		m.quietCycles = 0
		if m.probe != nil {
			m.probeCommit(m.now)
		}
	}
	for _, u := range retired {
		si := u.SI

		if si.Class == isa.Store {
			// Write-allocate at commit: the store drains from the
			// store buffer into the hierarchy (the latency hides in
			// the buffer; the fill warms/claims the line).
			m.hier.DataLatency(u.PC, u.MemAddr)
		}

		// Direct target for BTB establishment.
		var directTarget isa.Addr
		if si.Class.IsDirect() {
			directTarget = si.Target
		}
		m.btbBuilder.Retire(u.PC, si.Class, u.ActTaken, directTarget)

		switch {
		case si.Class == isa.CondBranch:
			m.Stats.CondBranches++
			if u.PredTaken != u.ActTaken {
				m.Stats.CondMispredict++
			}
			if u.ActTaken {
				m.Stats.TakenBranches++
			}
			// Train the decoupled TAGE: with the prediction-time
			// payload when available, otherwise (coupled-fetched or
			// BTB-invisible branch) with a fresh retire-time
			// read-out.
			if u.HasTage {
				m.tage.Update(u.PC, u.TagePred, u.ActTaken)
			} else {
				pred := m.tage.Predict(u.PC, m.retHist)
				m.tage.Update(u.PC, pred, u.ActTaken)
			}
			m.retHist.UpdateCond(uint64(u.PC), u.ActTaken)
			// Coupled bimodal update policy (Section IV-D3 vs the
			// all-branches alternative; see Config.CoupledUpdateAll).
			if m.elf.Pred.Bimodal != nil && (u.Coupled || m.cfg.CoupledUpdateAll) {
				m.elf.Pred.Bimodal.Update(u.PC, u.ActTaken)
			}
			// Confidence-filter training: only coupled speculations
			// teach it (that is the behaviour it gates).
			if m.elf.Pred.Conf != nil && u.Coupled && u.CoupledPredUsed {
				m.elf.Pred.Conf.Train(u.PC, u.PredTaken == u.ActTaken)
			}

		case si.Class.IsBranch():
			m.Stats.TakenBranches++
			if si.Class.IsIndirect() {
				m.Stats.IndBranches++
				if si.Class.IsReturn() {
					m.Stats.Returns++
				}
				if u.PredTarget != u.ActTarget {
					m.Stats.IndMispredict++
				}
				// Train the two-level indirect predictor (returns
				// train neither — the RAS handles them).
				if !si.Class.IsReturn() {
					m.btcL0.Update(u.PC, u.ActTarget)
					if u.HasIT {
						m.ittage.Update(u.PC, u.ITPred, u.ActTarget)
					} else {
						p := m.ittage.Predict(u.PC, m.retHist)
						m.ittage.Update(u.PC, p, u.ActTarget)
					}
					// Coupled BTC (Section IV-D3 / CoupledUpdateAll).
					if m.elf.Pred.BTC != nil && (u.Coupled || m.cfg.CoupledUpdateAll) {
						m.elf.Pred.BTC.Update(u.PC, u.ActTarget)
					}
				}
				m.retHist.UpdateIndirect(uint64(u.ActTarget))
			}
			// Architectural RAS.
			switch {
			case si.Class.IsCall():
				m.archRAS.Push(u.PC.Next())
			case si.Class.IsReturn():
				m.archRAS.Pop()
			}
		}

		m.Stats.Committed++
		m.lastRetired, m.haveRetired = u.Seq, true
		if m.tracer != nil {
			m.tracer.retired(u.FetchID, m.now)
		}
		m.stream.Release(u.Seq + 1)
	}
}
