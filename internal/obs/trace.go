package obs

// Distributed tracing: the span model that stitches one coordinator grid
// run and its fleet dispatches into a single trace. A Span is one timed
// operation (a grid, a cell, one dispatch attempt); spans link through
// (TraceID, SpanID, Parent) exactly like W3C Trace Context, and the
// coordinator carries the identity across the HTTP hop in a
// `traceparent` header so worker access logs and error envelopes can be
// joined to the run that caused them.
//
// Like *pipeline.Probe, *Span is a nil-able observation hook: code that
// may run untraced must guard every dereference (elflint's probegate
// check enforces this in internal/{pipeline,obs,exec}).
//
// IDs are allocated from per-SpanLog counters, not randomness: within a
// process they are unique, and with an unseeded log they are
// deterministic, which is what lets tests pin a stitched trace
// byte-for-byte. Processes that want globally distinguishable traces
// (elfd) seed the log once at startup.

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one distributed trace — one grid run, end to end.
type TraceID [16]byte

// String renders the 32-hex-digit W3C form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the absent trace.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// MarshalText encodes the ID as hex (used by the span JSON dump).
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText decodes the 32-hex-digit form.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*t = TraceID{}
		return nil
	}
	if len(b) != 32 {
		return fmt.Errorf("obs: trace id %q: want 32 hex digits", b)
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String renders the 16-hex-digit W3C form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the absent span (a root span's parent).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// MarshalText encodes the ID as hex.
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes the 16-hex-digit form.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*s = SpanID{}
		return nil
	}
	if len(b) != 16 {
		return fmt.Errorf("obs: span id %q: want 16 hex digits", b)
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// Span is one timed operation in a distributed trace.
type Span struct {
	Trace  TraceID   `json:"trace"`
	ID     SpanID    `json:"id"`
	Parent SpanID    `json:"parent,omitempty"` // zero for a trace root
	Name   string    `json:"name"`
	Worker string    `json:"worker,omitempty"` // "" = the recording process itself
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Label   `json:"attrs,omitempty"`
	Err    string    `json:"err,omitempty"`

	log *SpanLog // where Finish records the span; nil after decode
}

// SetAttr attaches (or replaces) one name=value attribute.
func (s *Span) SetAttr(name, value string) {
	for i := range s.Attrs {
		if s.Attrs[i].Name == name {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Label{Name: name, Value: value})
}

// SetError records the span's failure cause.
func (s *Span) SetError(err error) {
	if err != nil {
		s.Err = err.Error()
	}
}

// Traceparent renders the W3C Trace Context header value for this span:
// version 00, this span as the parent of whatever the receiver starts.
func (s *Span) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", s.Trace, s.ID)
}

// Finish stamps the end time and records the span into its log. A span
// must be finished exactly once; Finish on an already-finished span is a
// no-op, so error paths can finish defensively.
func (s *Span) Finish() {
	if !s.End.IsZero() {
		return
	}
	s.End = time.Now()
	if s.log != nil {
		s.log.add(*s)
	}
}

// TraceparentHeader is the canonical header name (Go's http canonicalises
// the on-wire lowercase form to this).
const TraceparentHeader = "Traceparent"

// ParseTraceparent decodes a `00-<trace>-<span>-<flags>` header value.
func ParseTraceparent(v string) (TraceID, SpanID, bool) {
	var t TraceID
	var s SpanID
	if len(v) < 55 || v[:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return t, s, false
	}
	if err := t.UnmarshalText([]byte(v[3:35])); err != nil || t.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	if err := s.UnmarshalText([]byte(v[36:52])); err != nil || s.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// SpanLog collects finished spans and allocates span identity. It is
// bounded: once max spans are held, each new span overwrites the oldest
// slot of a fixed ring (Dropped counts the evictions), so a long-lived
// coordinator cannot grow without limit and eviction costs O(1).
type SpanLog struct {
	mu      sync.Mutex
	max     int
	spans   []Span // grows to max, then is a ring
	oldest  int    // ring index of the oldest span once len(spans) == max
	dropped uint64

	seed   uint64
	traces atomic.Uint64
	ids    atomic.Uint64
}

// DefaultSpanLogSize bounds a SpanLog constructed with max <= 0.
const DefaultSpanLogSize = 8192

// NewSpanLog returns an empty log holding at most max finished spans
// (max <= 0 = DefaultSpanLogSize).
func NewSpanLog(max int) *SpanLog {
	if max <= 0 {
		max = DefaultSpanLogSize
	}
	return &SpanLog{max: max}
}

// Seed distinguishes this log's trace IDs from other processes' (the
// high 8 bytes of every TraceID). Call once, before the first trace; an
// unseeded log allocates deterministic IDs, which tests rely on.
func (l *SpanLog) Seed(seed uint64) {
	l.mu.Lock()
	l.seed = seed
	l.mu.Unlock()
}

// StartSpan begins a span under parent. A nil parent starts a new trace
// (the span becomes the trace root). The clock starts immediately; call
// Finish to record the span.
func (l *SpanLog) StartSpan(parent *Span, name string) *Span {
	s := &Span{Name: name, Start: time.Now(), log: l}
	putUint64(s.ID[:], l.ids.Add(1))
	if parent == nil {
		l.mu.Lock()
		seed := l.seed
		l.mu.Unlock()
		putUint64(s.Trace[:8], seed)
		putUint64(s.Trace[8:], l.traces.Add(1))
		return s
	}
	s.Trace = parent.Trace
	s.Parent = parent.ID
	return s
}

// add records one finished span; beyond the bound it overwrites the
// oldest.
func (l *SpanLog) add(s Span) {
	s.log = nil
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) < l.max {
		l.spans = append(l.spans, s)
		return
	}
	l.spans[l.oldest] = s
	l.oldest = (l.oldest + 1) % l.max
	l.dropped++
}

// Snapshot copies the finished spans in finish order.
func (l *SpanLog) Snapshot() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == 0 {
		return nil
	}
	out := make([]Span, 0, len(l.spans))
	out = append(out, l.spans[l.oldest:]...)
	return append(out, l.spans[:l.oldest]...)
}

// Dropped counts spans evicted by the size bound.
func (l *SpanLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Reset discards all finished spans (ID allocation continues).
func (l *SpanLog) Reset() {
	l.mu.Lock()
	l.spans = nil
	l.oldest = 0
	l.mu.Unlock()
}

// putUint64 writes v big-endian into b[:8].
func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// spanCtxKey carries the current span through contexts.
type spanCtxKey struct{}

// ContextWithSpan returns ctx with s as the current span; work dispatched
// under the returned context becomes children of s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil when the context
// carries none — callers must nil-guard anything they do with it.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
