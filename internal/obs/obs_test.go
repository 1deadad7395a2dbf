package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 5})
	// Prometheus `le` semantics: bounds are inclusive upper limits.
	for _, v := range []float64{0, 0.5, 1} { // all land in le=1
		h.Observe(v)
	}
	h.Observe(1.5) // le=2
	h.Observe(2)   // le=2 (boundary is inclusive)
	h.Observe(5)   // le=5
	h.Observe(6)   // +Inf
	s := h.Snapshot()
	want := []uint64{3, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+0.5+1+1.5+2+5+6 {
		t.Errorf("sum = %v", s.Sum)
	}
	if m := s.Mean(); math.Abs(m-16.0/7) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", LinearBuckets(10, 10, 10)) // 10..100
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 40 || q > 60 {
		t.Errorf("p50 = %v, want ~50", q)
	}
	if q := s.Quantile(0.99); q < 90 || q > 100 {
		t.Errorf("p99 = %v, want ~99", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// the -race run in scripts/verify.sh is the real assertion here.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ExpBuckets(1, 2, 8))
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 300))
				// Concurrent get-or-create of the same labeled child.
				r.Counter("labeled", "", L("w", "shared")).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Errorf("counter = %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != workers*each {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if lc := r.Counter("labeled", "", L("w", "shared")).Value(); lc != workers*each {
		t.Errorf("labeled counter = %d, want %d", lc, workers*each)
	}
}

// TestConcurrentFirstUse has several goroutines ask for the same new
// counters, gauges and histograms at once while exposition renders: each
// (name, labels) must yield one metric holding every goroutine's update,
// and exposition must never meet a child whose metric is not made yet.
// Run under -race in scripts/verify.sh.
func TestConcurrentFirstUse(t *testing.T) {
	r := NewRegistry()
	const workers, children = 4, 300
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < children; i++ {
				l := L("i", fmt.Sprint(i))
				r.Counter("first_total", "", l).Inc()
				r.Gauge("first_depth", "", l).Add(1)
				r.Histogram("first_seconds", "", []float64{1}, l).Observe(0.5)
			}
		}()
	}
	scraped := make(chan error, 1)
	go func() {
		<-start
		var err error
		for k := 0; k < 50 && err == nil; k++ {
			err = r.WritePrometheus(io.Discard)
		}
		scraped <- err
	}()
	close(start)
	wg.Wait()
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < children; i++ {
		l := L("i", fmt.Sprint(i))
		if v := r.Counter("first_total", "", l).Value(); v != workers {
			t.Fatalf("first_total{i=%d} = %d, want %d", i, v, workers)
		}
		if v := r.Gauge("first_depth", "", l).Value(); v != workers {
			t.Fatalf("first_depth{i=%d} = %v, want %d", i, v, workers)
		}
		if v := r.Histogram("first_seconds", "", nil, l).Count(); v != workers {
			t.Fatalf("first_seconds{i=%d} count = %d, want %d", i, v, workers)
		}
	}
}

// TestHistogramExpositionUnderConcurrentObservers hammers Observe while
// repeatedly rendering and re-parsing the exposition, asserting the
// invariants scrapers rely on: the +Inf bucket line is present and equals
// _count, and cumulative bucket values never decrease left to right. Run
// under -race in scripts/verify.sh.
func TestHistogramExpositionUnderConcurrentObservers(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("elf_hammer_seconds", "hammered", []float64{1, 2, 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64((i + w) % 6))
			}
		}(w)
	}
	for iter := 0; iter < 200; iter++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		fams, err := parsePromText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("exposition unparseable: %v\n%s", err, sb.String())
		}
		s := fams[0].series[""]
		inf, ok := s.buckets["+Inf"]
		if !ok {
			t.Fatalf("+Inf bucket line missing:\n%s", sb.String())
		}
		if inf != s.count {
			t.Fatalf("+Inf bucket %v != _count %v:\n%s", inf, s.count, sb.String())
		}
		prev := 0.0
		for _, le := range []string{"1", "2", "4", "+Inf"} {
			if s.buckets[le] < prev {
				t.Fatalf("cumulative bucket le=%s decreased (%v after %v):\n%s",
					le, s.buckets[le], prev, sb.String())
			}
			prev = s.buckets[le]
		}
	}
	close(stop)
	wg.Wait()
}

// TestNilSinksAreNoOps pins the rule that lets components skip nil
// checks: a metric from a nil registry works but is private to its caller
// (asking again returns a fresh one, so no exposition can list it),
// GaugeFunc on a nil registry never evaluates its function, and a nil
// ring drops events and dumps nothing.
func TestNilSinksAreNoOps(t *testing.T) {
	var none *Registry
	for _, tc := range []struct {
		name string
		use  func() error
	}{
		{"counter", func() error {
			c := none.Counter("n_total", "", L("k", "v"))
			c.Add(2)
			c.Inc()
			if c.Value() != 3 {
				return fmt.Errorf("value %d, want 3", c.Value())
			}
			if none.Counter("n_total", "", L("k", "v")) == c {
				return fmt.Errorf("a nil registry handed out one counter twice")
			}
			return nil
		}},
		{"gauge", func() error {
			g := none.Gauge("n_gauge", "")
			g.Set(2.5)
			g.Add(1)
			if g.Value() != 3.5 {
				return fmt.Errorf("value %v, want 3.5", g.Value())
			}
			if none.Gauge("n_gauge", "") == g {
				return fmt.Errorf("a nil registry handed out one gauge twice")
			}
			return nil
		}},
		{"histogram", func() error {
			h := none.Histogram("n_seconds", "", []float64{2, 1})
			h.Observe(1)
			h.Observe(3)
			s := h.Snapshot()
			if !reflect.DeepEqual(s.Bounds, []float64{1, 2}) ||
				!reflect.DeepEqual(s.Counts, []uint64{1, 0, 1}) || s.Sum != 4 {
				return fmt.Errorf("snapshot %+v, want bounds [1 2], counts [1 0 1], sum 4", s)
			}
			if none.Histogram("n_seconds", "", nil) == h {
				return fmt.Errorf("a nil registry handed out one histogram twice")
			}
			return nil
		}},
		{"gauge func", func() error {
			evaluated := false
			none.GaugeFunc("n_func", "", func() float64 { evaluated = true; return 1 })
			if evaluated {
				return fmt.Errorf("GaugeFunc on a nil registry evaluated its function")
			}
			return nil
		}},
		{"ring", func() error {
			var r *Ring
			r.Add(Event{Kind: EventDispatch})
			var buf bytes.Buffer
			r.Dump(&buf)
			if buf.Len() != 0 {
				return fmt.Errorf("nil ring dumped %q", buf.String())
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.use(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCounterValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "", L("config", "DCF")).Add(2)
	r.Counter("runs_total", "", L("config", "U-ELF")).Inc()
	r.Gauge("depth", "", L("config", "DCF")).Set(9)
	if got, want := r.CounterValues("runs_total", "config"), map[string]uint64{"DCF": 2, "U-ELF": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("runs_total = %v, want %v", got, want)
	}
	for _, name := range []string{"depth", "missing_total"} {
		if got := r.CounterValues(name, "config"); len(got) != 0 {
			t.Errorf("%s = %v, want empty", name, got)
		}
	}
}

func TestIdempotentCreation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "help")
	b := r.Counter("x", "ignored on second call")
	if a != b {
		t.Fatal("same (name, labels) returned different counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestPrometheusGolden pins the exposition byte-for-byte: family sorting,
// HELP/TYPE lines, label rendering, cumulative buckets, sum and count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last", "sorted last").Add(3)
	r.Counter("aa_requests_total", "reqs", L("code", "2xx")).Add(7)
	r.Counter("aa_requests_total", "reqs", L("code", "5xx")).Inc()
	r.Gauge("mid_gauge", "a gauge").Set(2.5)
	r.GaugeFunc("mid_func", "computed", func() float64 { return 42 })
	h := r.Histogram("elf_demo_cycles", "demo", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_requests_total reqs
# TYPE aa_requests_total counter
aa_requests_total{code="2xx"} 7
aa_requests_total{code="5xx"} 1
# HELP elf_demo_cycles demo
# TYPE elf_demo_cycles histogram
elf_demo_cycles_bucket{le="1"} 1
elf_demo_cycles_bucket{le="2"} 1
elf_demo_cycles_bucket{le="4"} 2
elf_demo_cycles_bucket{le="+Inf"} 3
elf_demo_cycles_sum 13
elf_demo_cycles_count 3
# HELP mid_func computed
# TYPE mid_func gauge
mid_func 42
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge 2.5
# HELP zz_last sorted last
# TYPE zz_last counter
zz_last 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", L("path", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `c{path="a\"b\\c\n"} 1`) {
		t.Errorf("unescaped label:\n%s", sb.String())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "").Inc()
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ok_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 2, 4)
	if len(lin) != 4 || lin[0] != 0 || lin[3] != 6 {
		t.Errorf("linear buckets = %v", lin)
	}
	exp := ExpBuckets(1, 2, 5)
	if len(exp) != 5 || exp[0] != 1 || exp[4] != 16 {
		t.Errorf("exp buckets = %v", exp)
	}
}
