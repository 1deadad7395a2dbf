package obs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanIDsAndTraceparent(t *testing.T) {
	l := NewSpanLog(0)
	root := l.StartSpan(nil, "grid")
	if root.Trace.IsZero() || root.ID.IsZero() {
		t.Fatalf("root span missing identity: %+v", root)
	}
	if !root.Parent.IsZero() {
		t.Errorf("root parent = %s, want zero", root.Parent)
	}
	child := l.StartSpan(root, "cell")
	if child.Trace != root.Trace {
		t.Errorf("child trace %s != root trace %s", child.Trace, child.ID)
	}
	if child.Parent != root.ID {
		t.Errorf("child parent %s, want %s", child.Parent, root.ID)
	}
	if child.ID == root.ID {
		t.Error("child reused root's span id")
	}

	tp := child.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q not W3C-shaped", tp)
	}
	tr, sp, ok := ParseTraceparent(tp)
	if !ok || tr != child.Trace || sp != child.ID {
		t.Errorf("ParseTraceparent(%q) = %s,%s,%v", tp, tr, sp, ok)
	}
	for _, bad := range []string{
		"", "00", "01-" + tp[3:],
		"00-00000000000000000000000000000000-0000000000000001-01",
		"00-" + strings.Repeat("0", 31) + "1-0000000000000000-01",
		"00-xyzw0000000000000000000000000001-0000000000000001-01",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestSpanLogDeterministicWhenUnseeded(t *testing.T) {
	ids := func() []string {
		l := NewSpanLog(0)
		a := l.StartSpan(nil, "grid")
		b := l.StartSpan(a, "cell")
		return []string{a.Trace.String(), a.ID.String(), b.ID.String()}
	}
	x, y := ids(), ids()
	for i := range x {
		if x[i] != y[i] {
			t.Errorf("run ids diverge at %d: %s vs %s", i, x[i], y[i])
		}
	}
	seeded := NewSpanLog(0)
	seeded.Seed(0xdeadbeef)
	if got := seeded.StartSpan(nil, "grid").Trace.String(); got == x[0] {
		t.Errorf("seeded log produced the unseeded trace id %s", got)
	}
}

func TestSpanFinishRecordsOnce(t *testing.T) {
	l := NewSpanLog(0)
	s := l.StartSpan(nil, "op")
	s.SetAttr("cell", "w/c")
	s.SetAttr("cell", "w/c2") // replace, not append
	s.SetError(nil)
	s.Finish()
	s.Finish() // idempotent
	got := l.Snapshot()
	if len(got) != 1 {
		t.Fatalf("snapshot has %d spans, want 1", len(got))
	}
	if got[0].End.IsZero() || got[0].End.Before(got[0].Start) {
		t.Errorf("bad span times: %+v", got[0])
	}
	if len(got[0].Attrs) != 1 || got[0].Attrs[0].Value != "w/c2" {
		t.Errorf("attrs = %v", got[0].Attrs)
	}
	if got[0].Err != "" {
		t.Errorf("err = %q, want empty", got[0].Err)
	}
}

// finishNamed finishes n spans named prefix0, prefix1, ... in order.
func finishNamed(l *SpanLog, prefix string, n int) {
	for i := 0; i < n; i++ {
		l.StartSpan(nil, fmt.Sprintf("%s%d", prefix, i)).Finish()
	}
}

// wantNames checks that spans are exactly prefix{from}..prefix{to-1}.
func wantNames(t *testing.T, spans []Span, prefix string, from, to int) {
	t.Helper()
	if len(spans) != to-from {
		t.Fatalf("retained %d spans, want %d", len(spans), to-from)
	}
	for i, s := range spans {
		if want := fmt.Sprintf("%s%d", prefix, from+i); s.Name != want {
			t.Fatalf("span %d = %q, want %q (finish order)", i, s.Name, want)
		}
	}
}

func TestSpanLogBound(t *testing.T) {
	const size = 4
	l := NewSpanLog(size)
	finishNamed(l, "a", 3)
	wantNames(t, l.Snapshot(), "a", 0, 3) // not yet full

	l.Reset()
	finishNamed(l, "op", 5*size/2) // 2.5x the bound: the ring wraps
	wantNames(t, l.Snapshot(), "op", 5*size/2-size, 5*size/2)
	if d := l.Dropped(); d != 5*size/2-size {
		t.Errorf("dropped = %d, want %d", d, 5*size/2-size)
	}

	l.Reset()
	if got := l.Snapshot(); len(got) != 0 {
		t.Errorf("snapshot after reset = %d spans", len(got))
	}
	finishNamed(l, "b", size+1) // refill past the bound after a reset
	wantNames(t, l.Snapshot(), "b", 1, size+1)
	if d := l.Dropped(); d != 5*size/2-size+1 {
		t.Errorf("dropped after refill = %d, want %d", d, 5*size/2-size+1)
	}
}

// BenchmarkSpanLogAddFull times recording into a full log: eviction is a
// ring overwrite, so ns/op is flat across sizes and add allocates nothing.
func BenchmarkSpanLogAddFull(b *testing.B) {
	for _, size := range []int{64, DefaultSpanLogSize, 1 << 16} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			l := NewSpanLog(size)
			s := l.StartSpan(nil, "cell")
			s.SetAttr("cell", "w/c")
			s.End = time.Now()
			for i := 0; i < size; i++ {
				l.add(*s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.add(*s)
			}
		})
	}
}

func TestSpanContext(t *testing.T) {
	if s := SpanFromContext(context.Background()); s != nil {
		t.Fatalf("empty context carried span %+v", s)
	}
	l := NewSpanLog(0)
	s := l.StartSpan(nil, "grid")
	ctx := ContextWithSpan(context.Background(), s)
	if got := SpanFromContext(ctx); got != s {
		t.Errorf("SpanFromContext = %p, want %p", got, s)
	}
}

func TestSpanLogConcurrent(t *testing.T) {
	l := NewSpanLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := l.StartSpan(nil, "grid")
			for i := 0; i < 100; i++ {
				c := l.StartSpan(root, "cell")
				c.Finish()
			}
			root.Finish()
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, s := range l.Snapshot() {
		if seen[s.ID.String()] {
			t.Fatalf("duplicate span id %s", s.ID)
		}
		seen[s.ID.String()] = true
	}
}

func TestChromeTraceCanonicalDeterminism(t *testing.T) {
	render := func() string {
		l := NewSpanLog(0)
		grid := l.StartSpan(nil, "grid")
		for _, w := range []string{"w1", "w2"} {
			c := l.StartSpan(grid, "cell")
			c.Worker = w
			c.SetAttr("cell", "srv64k/base")
			c.Finish()
		}
		bad := l.StartSpan(grid, "attempt")
		bad.Worker = "w2"
		bad.SetError(context.DeadlineExceeded)
		bad.Finish()
		grid.Finish()
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, l.Snapshot(), true); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("canonical Chrome export not byte-deterministic:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{
		`"coordinator"`, `"worker w1"`, `"worker w2"`,
		`"cat":"error"`, `"attr.cell":"srv64k/base"`, `"parent"`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("export missing %s:\n%s", want, a)
		}
	}
}

func TestChromeTraceWallClockMode(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spans := []Span{
		{Name: "grid", Start: base, End: base.Add(30 * time.Microsecond)},
		{Name: "cell", Worker: "w", Start: base.Add(10 * time.Microsecond), End: base.Add(25 * time.Microsecond)},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"ts":10,"dur":15`) {
		t.Errorf("wall-clock ts/dur missing:\n%s", out)
	}
}

func TestSpansJSONRoundTrip(t *testing.T) {
	l := NewSpanLog(0)
	root := l.StartSpan(nil, "grid")
	c := l.StartSpan(root, "cell")
	c.Worker = "w1"
	c.SetAttr("cell", "a/b")
	c.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := WriteSpansJSON(&buf, l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpansJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round-tripped %d spans, want 2", len(back))
	}
	if back[0].Trace != root.Trace || back[0].ID.IsZero() {
		t.Errorf("identity lost: %+v", back[0])
	}
	if back[1].Worker != "" && back[1].Worker != "w1" && back[0].Worker != "w1" {
		t.Errorf("worker lost: %+v", back)
	}
}
