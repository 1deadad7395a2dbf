package obs

// Metrics federation: a -fleet coordinator periodically scrapes each
// worker's /metrics (the text format prom.go emits), keeps the latest
// snapshot per worker, and serves one merged fleet view. Merge rules:
//
//   - every worker series is re-exported with a `worker="<addr>"` label,
//     so per-worker attribution survives federation;
//   - an aggregate series per (family, label set) is emitted with
//     `worker="all"`: counters and histograms (bucket-wise, plus sum and
//     count) are summed across workers; gauges take the last-scraped
//     worker's value in configured order (summing gauges is meaningless
//     — the per-worker series carry the truth);
//   - each scrape replaces that worker's snapshot wholesale (the scraped
//     counters are already cumulative; adding snapshots would double
//     count).
//
// The parser understands exactly the dialect prom.go writes (HELP/TYPE
// comments, escaped labels, cumulative histogram buckets) and tolerates
// unknown lines, so a coordinator can also federate a stock Prometheus
// client's output.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fedSeries is one parsed sample row (one label set within a family).
type fedSeries struct {
	labels      []Label // without the histogram's le label
	value       float64 // counter or gauge value
	buckets     map[string]float64
	bucketOrder []string // le values in appearance order
	sum         float64
	count       float64
}

// fedFamily is one parsed metric family.
type fedFamily struct {
	name, help, typ string
	order           []string
	series          map[string]*fedSeries
}

func (f *fedFamily) get(labels []Label) *fedSeries {
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &fedSeries{labels: append([]Label(nil), labels...)}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// parsePromText parses a Prometheus text exposition into families.
func parsePromText(r io.Reader) ([]*fedFamily, error) {
	byName := map[string]*fedFamily{}
	var order []*fedFamily
	family := func(name string) *fedFamily {
		f, ok := byName[name]
		if !ok {
			f = &fedFamily{name: name, typ: "untyped", series: map[string]*fedSeries{}}
			byName[name] = f
			order = append(order, f)
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			if name, help, ok := strings.Cut(rest, " "); ok {
				family(name).help = help
			} else {
				family(rest)
			}
			continue
		case strings.HasPrefix(line, "# TYPE "):
			rest := line[len("# TYPE "):]
			if name, typ, ok := strings.Cut(rest, " "); ok {
				family(name).typ = typ
			}
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		// Histogram sub-series fold into their base family.
		base, part := name, ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if f, ok := byName[trimmed]; ok && f.typ == typeHistogram {
					base, part = trimmed, suffix
				}
				break
			}
		}
		f := family(base)
		switch part {
		case "_bucket":
			le := ""
			rest := labels[:0]
			for _, l := range labels {
				if l.Name == "le" {
					le = l.Value
				} else {
					rest = append(rest, l)
				}
			}
			s := f.get(rest)
			if s.buckets == nil {
				s.buckets = map[string]float64{}
			}
			if _, seen := s.buckets[le]; !seen {
				s.bucketOrder = append(s.bucketOrder, le)
			}
			s.buckets[le] = value
		case "_sum":
			f.get(labels).sum = value
		case "_count":
			f.get(labels).count = value
		default:
			f.get(labels).value = value
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return order, nil
}

// parseSample splits `name{a="b",...} value` into its parts.
func parseSample(line string) (name string, labels []Label, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 {
		name, rest = rest[:i], rest[i:]
	} else {
		return "", nil, 0, fmt.Errorf("obs: sample %q has no value", line)
	}
	if strings.HasPrefix(rest, "{") {
		end, err := labelSetEnd(rest)
		if err != nil {
			return "", nil, 0, fmt.Errorf("obs: sample %q: %w", line, err)
		}
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, fmt.Errorf("obs: sample %q: %w", line, err)
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("obs: sample %q: bad value: %w", line, err)
	}
	return name, labels, v, nil
}

// labelSetEnd finds the index of the closing '}' of a label set opened at
// rest[0], honouring quoted, escaped values.
func labelSetEnd(rest string) (int, error) {
	inQuote := false
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("unterminated label set")
}

// parseLabels parses `a="b",c="d"` (already stripped of braces).
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("bad label in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", name)
		}
		var sb strings.Builder
		i := 1
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated value for label %q", name)
		}
		out = append(out, Label{Name: name, Value: sb.String()})
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// FederationConfig wires a Federation.
type FederationConfig struct {
	// Workers lists the worker base URLs to scrape, in the order gauges
	// resolve their last-write aggregate.
	Workers []string
	// Metrics exposes the federation's own series (elf_fed_scrapes_total,
	// elf_fed_scrape_errors_total, elf_fed_worker_up) — on a coordinator
	// this is its main registry, so scrape health shows up in the fleet
	// view itself. Nil keeps them unexposed.
	Metrics *Registry
}

// fedWorkerState is one worker's scrape ledger.
type fedWorkerState struct {
	up         bool
	lastScrape time.Time
	lastErr    string
	families   []*fedFamily

	scrapes  *Counter
	failures *Counter
}

// Federation scrapes worker /metrics endpoints and serves the merged
// fleet view (see the package comment for the merge rules).
type Federation struct {
	cfg    FederationConfig
	client *http.Client

	mu    sync.Mutex
	state map[string]*fedWorkerState
}

// NewFederation returns a federation over cfg.Workers. No scraping
// happens until Scrape is called (callers own the cadence).
func NewFederation(cfg FederationConfig) *Federation {
	f := &Federation{cfg: cfg, client: &http.Client{Timeout: 10 * time.Second},
		state: map[string]*fedWorkerState{}}
	for i, addr := range cfg.Workers {
		addr = strings.TrimRight(addr, "/")
		cfg.Workers[i] = addr
		lbl := L("worker", addr)
		st := &fedWorkerState{
			scrapes: cfg.Metrics.Counter("elf_fed_scrapes_total",
				"Completed federation scrapes of a worker's /metrics.", lbl),
			failures: cfg.Metrics.Counter("elf_fed_scrape_errors_total",
				"Federation scrapes that failed.", lbl),
		}
		cfg.Metrics.GaugeFunc("elf_fed_worker_up",
			"1 while the worker's last federation scrape succeeded.",
			func() float64 {
				f.mu.Lock()
				defer f.mu.Unlock()
				if st.up {
					return 1
				}
				return 0
			}, lbl)
		f.state[addr] = st
	}
	return f
}

// Scrape fetches every worker's exposition once, replacing snapshots.
// Failures mark the worker down and keep its previous snapshot (stale
// beats absent for post-mortems); the error lands in Summary.
func (f *Federation) Scrape(ctx context.Context) {
	for _, addr := range f.cfg.Workers {
		if err := f.scrapeOne(ctx, addr); err != nil {
			f.markDown(addr, err)
		}
	}
}

func (f *Federation) scrapeOne(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: %s", addr+"/metrics", resp.Status)
	}
	return f.UpdateFrom(addr, resp.Body)
}

// UpdateFrom parses one exposition and installs it as worker's snapshot
// (exported so tests and push-style feeders can bypass HTTP).
func (f *Federation) UpdateFrom(worker string, r io.Reader) error {
	fams, err := parsePromText(r)
	if err != nil {
		f.markDown(worker, err)
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.state[worker]
	if !ok {
		return fmt.Errorf("obs: federation has no worker %q", worker)
	}
	st.families = fams
	st.up = true
	st.lastScrape = time.Now()
	st.lastErr = ""
	st.scrapes.Inc()
	return nil
}

// markDown records a failed scrape.
func (f *Federation) markDown(worker string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.state[worker]
	if !ok {
		return
	}
	st.up = false
	st.lastErr = err.Error()
	st.failures.Inc()
}

// FedWorker is one worker's federation status for /debug/stats.
type FedWorker struct {
	Addr       string    `json:"addr"`
	Up         bool      `json:"up"`
	LastScrape time.Time `json:"lastScrape,omitempty"`
	Error      string    `json:"error,omitempty"`
	Families   int       `json:"families"`
}

// Summary snapshots every worker's scrape state in configured order.
func (f *Federation) Summary() []FedWorker {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FedWorker, 0, len(f.cfg.Workers))
	for _, addr := range f.cfg.Workers {
		st := f.state[addr]
		out = append(out, FedWorker{
			Addr: addr, Up: st.up, LastScrape: st.lastScrape,
			Error: st.lastErr, Families: len(st.families),
		})
	}
	return out
}

// snapshot copies the per-worker family lists under the lock. The family
// structures are replaced wholesale by UpdateFrom, never mutated, so the
// returned pointers are safe to read without it.
func (f *Federation) snapshot() map[string][]*fedFamily {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]*fedFamily, len(f.state))
	for addr, st := range f.state {
		out[addr] = st.families
	}
	return out
}

// mergedRow is one exposition row of the fleet view.
type mergedRow struct {
	labels []Label
	s      *fedSeries
	typ    string
}

// WriteFleetMetrics renders the coordinator's fleet view: its own
// registry merged with every worker's latest snapshot under the
// federation merge rules. Families sort by name; within a family the
// coordinator's own series come first, then the `worker="all"`
// aggregates, then per-worker series in configured worker order —
// deterministic, golden-testable output.
func WriteFleetMetrics(w io.Writer, own *Registry, fed *Federation) error {
	var sb strings.Builder
	if err := own.WritePrometheus(&sb); err != nil {
		return err
	}
	ownFams, err := parsePromText(strings.NewReader(sb.String()))
	if err != nil {
		return err
	}

	type outFamily struct {
		help, typ string
		rows      []mergedRow
	}
	fams := map[string]*outFamily{}
	var names []string
	get := func(name, help, typ string) *outFamily {
		f, ok := fams[name]
		if !ok {
			f = &outFamily{help: help, typ: typ}
			fams[name] = f
			names = append(names, name)
		}
		return f
	}
	for _, f := range ownFams {
		of := get(f.name, f.help, f.typ)
		for _, key := range f.order {
			of.rows = append(of.rows, mergedRow{labels: f.series[key].labels, s: f.series[key], typ: f.typ})
		}
	}

	if fed != nil {
		snaps := fed.snapshot()
		// Aggregate pass: sum counters/histograms, last-write gauges.
		type aggKey struct{ fam, labels string }
		aggs := map[aggKey]*fedSeries{}
		var aggOrder []aggKey
		for _, addr := range fed.cfg.Workers {
			for _, f := range snaps[addr] {
				of := get(f.name, f.help, f.typ)
				if of.typ == "untyped" && f.typ != "untyped" {
					of.typ, of.help = f.typ, f.help
				}
				for _, key := range f.order {
					s := f.series[key]
					k := aggKey{f.name, key}
					a, ok := aggs[k]
					if !ok {
						a = &fedSeries{labels: append([]Label(nil), s.labels...)}
						aggs[k] = a
						aggOrder = append(aggOrder, k)
					}
					mergeSeries(a, s, f.typ)
				}
			}
		}
		for _, k := range aggOrder {
			of := fams[k.fam]
			of.rows = append(of.rows, mergedRow{
				labels: append(append([]Label(nil), aggs[k].labels...), L("worker", "all")),
				s:      aggs[k], typ: of.typ,
			})
		}
		// Per-worker pass: every series re-labeled with its worker.
		for _, addr := range fed.cfg.Workers {
			for _, f := range snaps[addr] {
				of := fams[f.name]
				for _, key := range f.order {
					s := f.series[key]
					of.rows = append(of.rows, mergedRow{
						labels: append(append([]Label(nil), s.labels...), L("worker", addr)),
						s:      s, typ: of.typ,
					})
				}
			}
		}
	}

	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, row := range f.rows {
			if err := writeMergedRow(w, name, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeSeries folds src into agg under the family-type merge rule.
func mergeSeries(agg, src *fedSeries, typ string) {
	switch typ {
	case typeHistogram:
		if agg.buckets == nil {
			agg.buckets = map[string]float64{}
		}
		for _, le := range src.bucketOrder {
			if _, seen := agg.buckets[le]; !seen {
				agg.bucketOrder = append(agg.bucketOrder, le)
			}
			agg.buckets[le] += src.buckets[le]
		}
		agg.sum += src.sum
		agg.count += src.count
	case typeGauge:
		agg.value = src.value // last write wins, worker order
	default: // counter, untyped
		agg.value += src.value
	}
}

// writeMergedRow renders one fleet-view row in prom.go's dialect.
func writeMergedRow(w io.Writer, name string, row mergedRow) error {
	if row.typ == typeHistogram {
		for _, le := range row.s.bucketOrder {
			ls := append(append([]Label(nil), row.labels...), L("le", le))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n",
				name, labelString(ls), formatFloat(row.s.buckets[le])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			name, labelString(row.labels), formatFloat(row.s.sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %s\n",
			name, labelString(row.labels), formatFloat(row.s.count))
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labelString(row.labels), formatFloat(row.s.value))
	return err
}

// FleetHandler serves the merged fleet view at GET /metrics.
func FleetHandler(own *Registry, fed *Federation) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		WriteFleetMetrics(w, own, fed)
	})
}
