package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads the untraced records of a -out file by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], &rec)
		}
	}
	return out, sc.Err()
}

// verdict compares set B (a change) against set A (its parent) on one
// metric, following the choosing-metrics rules: B regresses when its
// median is worse than A's by more than the bound; when either side's
// spread exceeds the bound the comparison is unresolved, unless every run
// of B beats (or loses to) every run of A; B improves when it wins at
// least nine tenths of the pairs and the medians differ by more than A's
// interquartile distance.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	sign := 1.0 // positive = B better
	if better == "lower" {
		sign = -1
	}
	var wins, pairs int
	for i := 0; i < len(a) && i < len(b); i++ {
		pairs++
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	win := ratio(float64(wins), float64(pairs))
	ma, mb := median(a), median(b)
	gain := sign * (mb - ma) / math.Abs(ma)
	q1, q3 := quartiles(a)
	switch {
	case spread(a) > bound || spread(b) > bound:
		lo := func(xs []float64) float64 { s := append([]float64(nil), xs...); sort.Float64s(s); return s[0] }
		hi := func(xs []float64) float64 { s := append([]float64(nil), xs...); sort.Float64s(s); return s[len(s)-1] }
		if sign > 0 && lo(b) > hi(a) || sign < 0 && hi(b) < lo(a) {
			return "better (all runs)", win
		}
		if sign > 0 && hi(b) < lo(a) || sign < 0 && lo(b) > hi(a) {
			return "REGRESSED (all runs)", win
		}
		return "unresolved", win
	case gain < -bound:
		return "REGRESSED", win
	case gain > 0 && win >= 0.9 && math.Abs(mb-ma) > q3-q1:
		return "improved", win
	}
	return "within bound", win
}

// compareFiles prints one row per workload × end-to-end metric and fails
// when any row regressed.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-17s %5s %12s %12s %12s %12s %12s %12s %6s %6s %7s  %s\n",
		"workload", "metric", "n", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound", "change", "B wins", "verdict")
	regressed := 0
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-13s (no runs in one of the files)\n", wl.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-17s (not reported)\n", wl.Name, m.Name)
				continue
			}
			v, win := verdict(va, vb, m.Better, m.Bound)
			if v == "REGRESSED" || v == "REGRESSED (all runs)" {
				regressed++
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-13s %-17s %2d/%-2d %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %6.3f %+6.3f %7.2f  %s\n",
				wl.Name, m.Name, len(va), len(vb), a1, median(va), a3, b1, median(vb), b3,
				m.Bound, (median(vb)-median(va))/math.Abs(median(va)), win, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload × metric pairs regressed beyond their bounds", regressed)
	}
	return nil
}

func values(rs []*record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
