package obs

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format version we emit.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in Prometheus text
// format, families sorted by name and children in registration order, so
// output is deterministic (golden-testable) and scrape-friendly. It
// copies the children under the registry lock, so a child registered
// while it writes is left out rather than raced with, and reads the
// metrics' atomic values (and calls gauge functions) outside the lock.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type famCopy struct {
		f    *family
		kids []child
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]famCopy, len(names))
	for i, n := range names {
		f := r.families[n]
		kids := make([]child, len(f.order))
		for j, key := range f.order {
			kids[j] = *f.children[key]
		}
		fams[i] = famCopy{f, kids}
	}
	r.mu.Unlock()

	for _, fc := range fams {
		f := fc.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for i := range fc.kids {
			if err := writeChild(w, f, &fc.kids[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFile writes the registry to path in Prometheus text format: the
// -metrics-out dump of the command-line tools.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeChild(w io.Writer, f *family, c *child) error {
	switch f.typ {
	case typeCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(c.labels), c.ctr.Value())
		return err
	case typeGauge:
		v := 0.0
		if c.gfunc != nil {
			v = c.gfunc()
		} else if c.gauge != nil {
			v = c.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(c.labels), formatFloat(v))
		return err
	case typeHistogram:
		s := c.hist.Snapshot()
		cum := uint64(0)
		for i, bound := range s.Bounds {
			cum += s.Counts[i]
			le := append(append([]Label(nil), c.labels...), L("le", formatFloat(bound)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(le), cum); err != nil {
				return err
			}
		}
		inf := append(append([]Label(nil), c.labels...), L("le", "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(inf), s.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(c.labels), formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(c.labels), s.Count)
		return err
	}
	return nil
}

// labelString renders {a="b",c="d"} or "" for no labels.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatFloat renders integral values without an exponent or trailing
// zeros ("32" not "32.0"), matching prometheus client conventions.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}
