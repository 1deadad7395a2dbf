package pipeline

// Observer receives one sample of a distribution. *obs.Histogram
// satisfies it; the pipeline depends only on this interface so the hot
// loop stays free of the metrics layer.
type Observer interface {
	Observe(v float64)
}

// Probe is the machine's sampled-distribution hook: the cycle-level
// distributions the paper's Sections IV-B/IV-C argue from (flush-recovery
// latency, FAQ occupancy, coupled-mode residency, resynchronization drain
// time), delivered to pluggable Observers instead of scalar counters.
//
// A nil *Probe (the default) costs one predictable nil-check per event
// site; a non-nil Probe with nil fields skips the corresponding
// distributions. Observers must be safe for use from the single simulation
// goroutine; obs.Histogram additionally allows many machines to share one
// Probe concurrently (every update is atomic).
type Probe struct {
	// FlushRecovery observes, per pipeline flush, the cycles between the
	// flush being applied and the next instruction committing — the
	// "refill the window" latency ELF exists to hide.
	FlushRecovery Observer

	// FAQOccupancy observes the fetch address queue's depth in blocks,
	// sampled every faqSampleEvery cycles (DCF fronts only).
	FAQOccupancy Observer

	// CoupledResidency observes, per ELF coupled period, the cycles from
	// entering coupled mode to the switch back to decoupled fetch.
	CoupledResidency Observer

	// ResyncDrain observes, per resynchronization, the cycles between the
	// Figure 5 algorithm declaring the FAQ caught up (ResyncPrepare) and
	// the mode switch actually firing once decode drains.
	ResyncDrain Observer
}

// faqSampleEvery is the FAQOccupancy sampling period in cycles.
const faqSampleEvery = 64

// AttachProbe enables distribution sampling on the machine. Attach after
// warmup (alongside ResetStats) so distributions cover the measured
// region only; pass nil to detach.
func (m *Machine) AttachProbe(p *Probe) {
	m.probe = p
	m.flushArmed, m.drainArmed = false, false
	m.coupledEnterAt = m.now
	if p != nil {
		m.nextFAQSample = m.now
	}
}

// probeSample runs once per cycle when a probe is attached (called from
// Cycle behind the nil check, so an unprobed machine pays one branch; the
// guard here keeps the function correct on its own).
func (m *Machine) probeSample(now uint64) {
	p := m.probe
	if p == nil {
		return
	}
	if p.FAQOccupancy != nil && m.dcf != nil && now >= m.nextFAQSample {
		m.nextFAQSample = now + faqSampleEvery
		p.FAQOccupancy.Observe(float64(m.faq.Len()))
	}
}

// probeFlush arms the flush-recovery timer (called when a flush applies).
func (m *Machine) probeFlush(now uint64) {
	if m.probe != nil && m.probe.FlushRecovery != nil {
		m.flushAt, m.flushArmed = now, true
	}
}

// probeCommit closes the flush-recovery interval at the first commit
// after a flush. flushArmed is only ever set by probeFlush with the
// FlushRecovery observer present (and AttachProbe disarms it), but the
// guard restates that locally so the site is safe by inspection.
func (m *Machine) probeCommit(now uint64) {
	if m.flushArmed {
		m.flushArmed = false
		if p := m.probe; p != nil && p.FlushRecovery != nil {
			p.FlushRecovery.Observe(float64(now - m.flushAt))
		}
	}
}

// probeEnterCoupled stamps the coupled period's start.
func (m *Machine) probeEnterCoupled(now uint64) {
	m.coupledEnterAt = now
	m.drainArmed = false
}

// probeSwitchPrepare stamps the drain start (ResyncPrepare fired).
func (m *Machine) probeSwitchPrepare(now uint64) {
	if m.probe != nil && m.probe.ResyncDrain != nil && !m.drainArmed {
		m.drainStartAt, m.drainArmed = now, true
	}
}

// probeSwitchDecoupled closes the coupled-residency (and, when armed, the
// drain) intervals as the machine resumes decoupled fetch.
func (m *Machine) probeSwitchDecoupled(now uint64) {
	p := m.probe
	if p == nil {
		return
	}
	if p.CoupledResidency != nil {
		p.CoupledResidency.Observe(float64(now - m.coupledEnterAt))
	}
	if m.drainArmed {
		m.drainArmed = false
		if p.ResyncDrain != nil {
			p.ResyncDrain.Observe(float64(now - m.drainStartAt))
		}
	}
}
