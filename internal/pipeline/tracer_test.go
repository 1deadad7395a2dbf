package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"elfetch/internal/core"
)

func TestTracerRecordsLifecycle(t *testing.T) {
	m := MustNew(DefaultConfig(), straightLine(t, 30))
	m.Run(5_000)
	tr := NewTracer(4096)
	m.AttachTracer(tr)
	m.Run(2_000)

	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	retired := 0
	for _, e := range evs {
		if e.Fetched == 0 {
			t.Fatal("event without fetch timestamp")
		}
		if e.Retired != 0 {
			retired++
			if !(e.Fetched <= e.Decoded && e.Decoded <= e.Renamed && e.Renamed <= e.Retired) {
				t.Fatalf("out-of-order timestamps: %+v", e)
			}
		}
	}
	if retired == 0 {
		t.Fatal("no retired events")
	}
}

func TestTracerBounded(t *testing.T) {
	m := MustNew(DefaultConfig(), straightLine(t, 30))
	tr := NewTracer(64)
	m.AttachTracer(tr)
	m.Run(5_000)
	if len(tr.Events()) > 64 {
		t.Fatalf("tracer retained %d events, bound 64", len(tr.Events()))
	}
}

// TestTracerKeepsNewestEvents runs a program with a wrong path: squashed
// wrong-path events never retire, and the bounded tracer must still hold
// the newest fetches rather than stop recording once they fill it.
func TestTracerKeepsNewestEvents(t *testing.T) {
	e, err := workloadLookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(DefaultConfig(), e.Program())
	m.Run(20_000)
	tr := NewTracer(4096)
	m.AttachTracer(tr)
	m.Run(200_000)

	evs := tr.Events()
	if len(evs) != 4096 {
		t.Fatalf("tracer holds %d events, want 4096", len(evs))
	}
	retired := 0
	for i, ev := range evs {
		if i > 0 && ev.FetchID <= evs[i-1].FetchID {
			t.Fatalf("events out of fetch order at %d: %d after %d", i, ev.FetchID, evs[i-1].FetchID)
		}
		if ev.Retired != 0 {
			retired++
		}
	}
	if newest := evs[len(evs)-1].Fetched; newest+1000 < m.Now() {
		t.Errorf("newest event fetched at cycle %d of %d", newest, m.Now())
	}
	if retired == 0 {
		t.Error("no retired events among the newest fetches")
	}
}

// TestTracerMarksCoupledFetches runs 641.leela_s under U-ELF, which
// fetches in coupled mode after flushes: the trace must flag those fetches,
// and the Chrome export must tag them coupled.
func TestTracerMarksCoupledFetches(t *testing.T) {
	e, err := workloadLookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(DefaultConfig().WithVariant(core.UELF), e.Program())
	m.Run(20_000)
	tr := NewTracer(65536)
	m.AttachTracer(tr)
	st := m.Run(50_000)
	if st.CoupledFetched == 0 {
		t.Fatal("U-ELF run fetched nothing in coupled mode")
	}
	coupled := 0
	for _, ev := range tr.Events() {
		if ev.Coupled {
			coupled++
		}
	}
	if coupled == 0 || uint64(coupled) > st.CoupledFetched {
		t.Fatalf("%d coupled trace events for %d coupled fetches", coupled, st.CoupledFetched)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for _, ce := range out.TraceEvents {
		if ce.Cat == "coupled" && ce.Args["coupled"] == true {
			tagged++
		}
	}
	if tagged == 0 {
		t.Error("Chrome trace has no slice tagged coupled")
	}
}

func TestPipeviewRenders(t *testing.T) {
	m := MustNew(DefaultConfig(), straightLine(t, 30))
	m.Run(2_000)
	tr := NewTracer(4096)
	m.AttachTracer(tr)
	m.Run(1_000)
	var buf bytes.Buffer
	if err := tr.WritePipeview(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "F") || !strings.Contains(out, "C") {
		t.Fatalf("pipeview lacks marks:\n%s", out)
	}
	buf.Reset()
	if err := tr.WritePipeview(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); n > 21 {
		t.Errorf("maxRows not honoured: %d lines", n)
	}
}

func TestPipeviewEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer(8).WritePipeview(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events") {
		t.Error("empty tracer output")
	}
}
