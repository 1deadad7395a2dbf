package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/store"
	"elfetch/internal/workload"
)

// cellTimer is the eval.CellRunner the grids dispatch through: it times
// each call into the wrapped backend (exec.Local.Run or exec.Fleet.Run)
// and, in traced items, wraps it in a span.
type cellTimer struct {
	r    *run
	next eval.CellRunner
	name string // span name of the wrapped call
	// keys and keyed, when set, map a cell to its content address and
	// that to the running call's span, so store spans nest under it.
	keys  map[string]string
	keyed *keySpans

	mu  sync.Mutex
	lat []float64 // seconds per call
}

func (t *cellTimer) Run(ctx context.Context, c eval.Cell) (eval.Result, error) {
	s := t.r.child(obs.SpanFromContext(ctx), t.name)
	if s != nil {
		name := cellName(c)
		s.SetAttr("cell", name)
		if t.keyed != nil {
			key := t.keys[name]
			t.keyed.put(key, s)
			defer t.keyed.drop(key)
		}
	}
	start := time.Now()
	res, err := t.next.Run(ctx, c)
	d := time.Since(start).Seconds()
	if s != nil {
		s.SetError(err)
		s.Finish()
	}
	t.mu.Lock()
	t.lat = append(t.lat, d)
	t.mu.Unlock()
	return res, err
}

// take returns and clears the recorded latencies.
func (t *cellTimer) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat := t.lat
	t.lat = nil
	return lat
}

func cellName(c eval.Cell) string { return c.Workload + "/" + c.Config.Name() }

// cellKeys content-addresses every cell of a grid the way the backends
// do (sched.Key("cell", cell)) and returns the keys by cell name with
// the seconds each sched.Key call took.
func cellKeys(entries []*workload.Entry, cfgs []pipeline.Config, p eval.Params) (map[string]string, []float64) {
	keys := map[string]string{}
	var secs []float64
	for _, e := range entries {
		for _, cfg := range cfgs {
			c := eval.Cell{Workload: e.Name, Config: cfg, Warmup: p.Warmup, Measure: p.Measure}
			var k string
			secs = append(secs, timed(func() { k = sched.Key("cell", c) }))
			keys[cellName(c)] = k
		}
	}
	return keys, secs
}

// keySpans maps a cell's content address to the span of the call that
// is running it, so store calls (which carry no context) nest under the
// cell that caused them.
type keySpans struct {
	mu sync.Mutex
	m  map[string]*obs.Span
}

func (k *keySpans) put(key string, s *obs.Span) {
	k.mu.Lock()
	k.m[key] = s
	k.mu.Unlock()
}

func (k *keySpans) drop(key string) {
	k.mu.Lock()
	delete(k.m, key)
	k.mu.Unlock()
}

func (k *keySpans) get(key string) *obs.Span {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.m[key]
}

// storeTimer is the store.Store the grid-store backend writes through: it
// times Get and Put and, while a traced cell runs, records them as spans
// under that cell.
type storeTimer struct {
	store.Store
	r     *run
	keyed *keySpans

	mu   sync.Mutex
	gets []float64
	puts []float64
	hits map[string][]byte // values read, kept in traced units for decode timing
}

func (s *storeTimer) Get(key string) ([]byte, bool, error) {
	sp := s.r.child(s.keyed.get(key), "store.get")
	t := time.Now()
	b, ok, err := s.Store.Get(key)
	d := time.Since(t).Seconds()
	finish(sp)
	s.mu.Lock()
	s.gets = append(s.gets, d)
	if sp != nil && ok {
		s.hits[key] = append([]byte(nil), b...)
	}
	s.mu.Unlock()
	return b, ok, err
}

func (s *storeTimer) Put(key string, value []byte) error {
	sp := s.r.child(s.keyed.get(key), "store.put")
	t := time.Now()
	err := s.Store.Put(key, value)
	d := time.Since(t).Seconds()
	finish(sp)
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.mu.Unlock()
	return err
}

// selfTimes sums each span name's self time (its duration minus the union
// of its children's intervals) and returns them with the total duration
// of the root spans (the traced items).
func selfTimes(spans []obs.Span) (map[string]float64, float64) {
	kids := map[obs.SpanID][]*obs.Span{}
	for i := range spans {
		if s := &spans[i]; !s.Parent.IsZero() {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]float64{}
	var total float64
	for i := range spans {
		s := &spans[i]
		d := s.End.Sub(s.Start).Seconds()
		if s.Parent.IsZero() {
			total += d
		}
		self[s.Name] += d - covered(s, kids[s.ID])
	}
	return self, total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *obs.Span, kids []*obs.Span) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var tot time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				tot += cur.b.Sub(cur.a)
			}
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		tot += cur.b.Sub(cur.a)
	}
	return tot.Seconds()
}

// finishTrace turns the traced items' spans and the CPU profile into the
// self.*, stage.* and pkg.* metrics and writes the span log as JSON that
// `elfview -spans` renders.
func (r *run) finishTrace() error {
	if r.spans == nil {
		return nil
	}
	spans := r.spans.Snapshot()
	self, total := selfTimes(spans)
	for _, n := range selfSpans {
		r.set("self."+n, ratio(self[n], total), len(spans))
	}
	samples, err := readProfile(r.profile)
	if err != nil {
		return err
	}
	stage, pkg := shares(samples)
	for _, s := range stages {
		r.set("stage."+s, stage[s], len(samples))
	}
	for _, p := range pkgs {
		r.set("pkg."+p, pkg[p], len(samples))
	}
	path := filepath.Join(r.opt.out, r.opt.workload+"-spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpansJSON(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := r.spans.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "bench: span log dropped %d oldest spans\n", d)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d spans to %s (render: go run ./cmd/elfview -spans %s -chrome trace.json)\n",
		len(spans), path, path)
	return nil
}
