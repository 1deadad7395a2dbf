package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func sample() *Table {
	return New("Demo", "workload", "rel", "mpki").
		Add("leela", "1.024", "30.3").
		Add("bzip2", "1.021", "18.8").
		Note("(note line)")
}

func TestWriteTextAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 2 rows + note
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "workload") {
		t.Errorf("header: %q", lines[1])
	}
	// Numeric columns right-align: the rel values end at the same offset.
	iL := strings.Index(lines[2], "1.024")
	iB := strings.Index(lines[3], "1.021")
	if iL != iB {
		t.Errorf("columns misaligned: %d vs %d\n%s", iL, iB, out)
	}
	if lines[3] != strings.TrimRight(lines[3], " ") {
		t.Error("trailing spaces not trimmed")
	}
}

func TestWriteCSVRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != "workload" || recs[2][1] != "1.021" {
		t.Fatalf("csv content: %v", recs)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "Demo" || len(got.Rows) != 2 || got.Notes[0] != "(note line)" {
		t.Fatalf("json content: %+v", got)
	}
}

func TestAddPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch accepted")
		}
	}()
	New("", "a", "b").Add("only-one")
}

func TestFormatters(t *testing.T) {
	if F(1.0239) != "1.024" || F1(30.25) != "30.2" {
		t.Error("float formatting")
	}
	if Pct(0.4955) != "49.5%" {
		t.Errorf("Pct = %q", Pct(0.4955))
	}
	if I(42) != "42" || I(uint64(7)) != "7" {
		t.Error("int formatting")
	}
}

func TestWriteDispatch(t *testing.T) {
	for _, f := range []Format{Text, CSV, JSON} {
		var buf bytes.Buffer
		if err := sample().Write(&buf, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", f)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"text": Text, "csv": CSV, "json": JSON, "JSON": JSON, " csv ": CSV, "": Text,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat accepted xml")
	}
}
