// Package obs is the observability layer's metric registry: counters,
// gauges and fixed-bucket histograms with Prometheus text-format
// exposition (prom.go). It is dependency-free and race-safe — every
// mutation is a single atomic operation, so hot paths (the scheduler's
// per-job accounting, the pipeline's sampled probes) pay no lock.
//
// Metrics are created through a Registry and identified by a family name
// plus an optional constant label set. Creation is idempotent: asking for
// the same (name, labels) returns the existing metric, which lets
// independent components share a family ("elfd_runs_total" with one
// label value per configuration) without coordination.
//
// A component keeps each of its counts in exactly one metric and reads it
// back for its Stats(), so Stats() and /metrics cannot drift. Two
// components given one registry therefore share a metric, and so a
// Stats() count, wherever they register the same name and labels.
//
// Optional sinks are no-ops, so callers never check them for nil: on a
// nil *Registry, Counter, Gauge and Histogram return a working metric
// that nothing exposes and GaugeFunc does nothing; on a nil *Ring, Add
// drops the event and Dump writes nothing.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a metric at
// creation. Values are escaped at exposition time.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not make the counter decrease).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by d (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bucket bounds are inclusive
// upper limits (Prometheus `le` semantics); one implicit +Inf bucket
// catches everything beyond the last bound. Observe is two atomic adds.
type Histogram struct {
	bounds []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~20) and the branch
	// predictor handles them better than binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds, plus the +Inf overflow.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending
	Counts []uint64  // len(Bounds)+1; last entry is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Mean returns the average observed value (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket. The +Inf bucket reports the last finite
// bound (there is no upper edge to interpolate toward).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if c == 0 {
			return s.Bounds[i]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + frac*(s.Bounds[i]-lo)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// LinearBuckets returns count bounds start, start+width, ...
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns count bounds start, start*factor, ...
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric kinds, also the Prometheus TYPE strings.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric family: shared help/type, one child per
// label set.
type family struct {
	name, help, typ string
	order           []string          // label-set keys in registration order
	children        map[string]*child // label-set key -> child
}

type child struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	gfunc  func() float64
	hist   *Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalises a label set (sorted by name).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Name)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
		sb.WriteByte(',')
	}
	return sb.String()
}

// lookup returns (creating if needed) the child for (name, labels),
// enforcing family type consistency. set fills in the child's metric
// under the registry lock, so goroutines that ask for a new child at the
// same time all get the one metric, and exposition never sees a child
// without it.
func (r *Registry) lookup(name, help, typ string, labels []Label, set func(*child)) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, children: make(map[string]*child)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: append([]Label(nil), labels...)}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	set(c)
	return c
}

// Counter returns the counter for (name, labels), creating it on first
// use. A nil registry returns a fresh counter that nothing exposes.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	c := r.lookup(name, help, typeCounter, labels, func(c *child) {
		if c.ctr == nil {
			c.ctr = &Counter{}
		}
	})
	return c.ctr
}

// Gauge returns the settable gauge for (name, labels). A nil registry
// returns a fresh gauge that nothing exposes.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	c := r.lookup(name, help, typeGauge, labels, func(c *child) {
		if c.gauge == nil {
			c.gauge = &Gauge{}
		}
	})
	return c.gauge
}

// GaugeFunc registers a computed gauge: f is evaluated at exposition
// time. Re-registering the same (name, labels) replaces the function. On
// a nil registry it does nothing.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, typeGauge, labels, func(c *child) { c.gfunc = f })
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (bounds are sorted; later
// calls may pass nil to retrieve the existing histogram). A nil registry
// returns a fresh histogram that nothing exposes.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	c := r.lookup(name, help, typeHistogram, labels, func(c *child) {
		if c.hist == nil {
			c.hist = newHistogram(bounds)
		}
	})
	return c.hist
}

// newHistogram builds an empty histogram over a sorted copy of bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// CounterValues returns the value of every counter in family name, keyed
// by each counter's value for label: the read side of a one-label family
// such as elfd_runs_total{config}. A missing family yields an empty map.
func (r *Registry) CounterValues(name, label string) map[string]uint64 {
	out := map[string]uint64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.typ != typeCounter {
		return out
	}
	for _, c := range f.children {
		for _, l := range c.labels {
			if l.Name == label {
				out[l.Value] = c.ctr.Value()
			}
		}
	}
	return out
}
