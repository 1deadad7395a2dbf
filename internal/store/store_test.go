package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"elfetch/internal/obs"
)

func mustPut(t *testing.T, s Store, key string, value []byte) {
	t.Helper()
	if err := s.Put(key, value); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func wantGet(t *testing.T, s Store, key string, want []byte) {
	t.Helper()
	got, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%q): miss, want hit", key)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%q) = %q, want %q", key, got, want)
	}
}

func wantMiss(t *testing.T, s Store, key string) {
	t.Helper()
	_, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if ok {
		t.Fatalf("Get(%q): hit, want miss", key)
	}
}

func openDisk(t *testing.T, dir string, cfg DiskConfig) *Disk {
	t.Helper()
	cfg.Dir = dir
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return d
}

func TestDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustPut(t, d, "alpha", []byte("one"))
	mustPut(t, d, "beta", []byte("two"))
	mustPut(t, d, "alpha", []byte("three")) // supersede
	wantGet(t, d, "alpha", []byte("three"))
	wantGet(t, d, "beta", []byte("two"))
	wantMiss(t, d, "gamma")
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Warm restart: the index is rebuilt from the segments and the
	// superseding record wins.
	d2 := openDisk(t, dir, DiskConfig{})
	defer d2.Close()
	wantGet(t, d2, "alpha", []byte("three"))
	wantGet(t, d2, "beta", []byte("two"))
	st := d2.Stats()[0]
	if st.Entries != 2 {
		t.Fatalf("entries after reopen = %d, want 2", st.Entries)
	}
	if st.Puts != 0 {
		t.Fatalf("puts after reopen = %d, want 0", st.Puts)
	}
}

func TestDiskRotation(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{MaxSegmentBytes: 128})
	for i := 0; i < 16; i++ {
		mustPut(t, d, fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{'v'}, 32))
	}
	st := d.Stats()[0]
	if st.Segments < 2 {
		t.Fatalf("segments = %d, want >= 2 after rotation", st.Segments)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d2 := openDisk(t, dir, DiskConfig{MaxSegmentBytes: 128})
	defer d2.Close()
	for i := 0; i < 16; i++ {
		wantGet(t, d2, fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{'v'}, 32))
	}
}

func TestDiskCompactDropsSuperseded(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	for i := 0; i < 8; i++ {
		mustPut(t, d, "hot", bytes.Repeat([]byte{byte('0' + i)}, 64))
	}
	mustPut(t, d, "cold", []byte("keep"))
	before := d.Stats()[0]
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := d.Stats()[0]
	if after.Compactions != before.Compactions+1 {
		t.Fatalf("compactions = %d, want %d", after.Compactions, before.Compactions+1)
	}
	wantGet(t, d, "hot", bytes.Repeat([]byte{'7'}, 64))
	wantGet(t, d, "cold", []byte("keep"))
	d.Close()

	// On-disk bytes shrank to the live set: exactly two records remain.
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		fi, _ := e.Info()
		total += fi.Size()
	}
	if want := int64(recordHeaderLen+3+64+checksumLen) + int64(recordHeaderLen+4+4+checksumLen); total != want {
		t.Fatalf("on-disk bytes after compact = %d, want %d", total, want)
	}

	d2 := openDisk(t, dir, DiskConfig{})
	defer d2.Close()
	wantGet(t, d2, "hot", bytes.Repeat([]byte{'7'}, 64))
	wantGet(t, d2, "cold", []byte("keep"))
}

func TestDiskQuotaEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	// Each record is 8 + 6 + 10 + 32 = 56 bytes; quota five records.
	d := openDisk(t, dir, DiskConfig{MaxBytes: 56 * 5})
	for i := 0; i < 12; i++ {
		mustPut(t, d, fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{'v'}, 10))
	}
	defer d.Close()
	st := d.Stats()[0]
	if st.Compactions == 0 {
		t.Fatal("expected an auto-compaction over quota")
	}
	if st.Bytes > 56*5 {
		t.Fatalf("live bytes %d exceed quota %d", st.Bytes, 56*5)
	}
	// The newest key always survives; the oldest ones are gone.
	wantGet(t, d, "key-11", bytes.Repeat([]byte{'v'}, 10))
	wantMiss(t, d, "key-00")
	wantMiss(t, d, "key-01")
}

// TestDiskTruncatedTailTolerated is the crash-safety contract: a partial
// final record — what a crash mid-append leaves behind — is detected,
// logged, and truncated away on open, and every record before it is
// served intact.
func TestDiskTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustPut(t, d, "alpha", []byte("survives"))
	mustPut(t, d, "beta", []byte("also survives"))
	mustPut(t, d, "victim", []byte("will be torn"))
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: chop 5 bytes off the final record, as if the
	// process died mid-write.
	seg := filepath.Join(dir, "seg-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	d2 := openDisk(t, dir, DiskConfig{})
	wantGet(t, d2, "alpha", []byte("survives"))
	wantGet(t, d2, "beta", []byte("also survives"))
	wantMiss(t, d2, "victim")
	// The torn bytes were removed, so the store appends cleanly.
	mustPut(t, d2, "victim", []byte("rewritten"))
	wantGet(t, d2, "victim", []byte("rewritten"))
	if err := d2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d3 := openDisk(t, dir, DiskConfig{})
	defer d3.Close()
	wantGet(t, d3, "victim", []byte("rewritten"))
}

// TestDiskCorruptTailChecksum covers the other torn-tail shape: the
// record is length-complete but its trailing bytes were never written
// (checksum mismatch). Replay stops at it; earlier records survive.
func TestDiskCorruptTailChecksum(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustPut(t, d, "alpha", []byte("survives"))
	mustPut(t, d, "victim", []byte("checksum breaks"))
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seg := filepath.Join(dir, "seg-00000001.log")
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	fi, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, fi.Size()-4); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	f.Close()

	d2 := openDisk(t, dir, DiskConfig{})
	defer d2.Close()
	wantGet(t, d2, "alpha", []byte("survives"))
	wantMiss(t, d2, "victim")
}

func TestDiskChecksumMismatchOnRead(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	mustPut(t, d, "good", []byte("fine"))
	mustPut(t, d, "bad", []byte("rotting"))
	// Flip a value byte of "bad" in place, behind the index's back
	// (silent media corruption).
	d.mu.Lock()
	r := d.index["bad"]
	f := d.files[r.seg]
	if _, err := f.WriteAt([]byte{'X'}, r.off+recordHeaderLen+int64(r.klen)); err != nil {
		d.mu.Unlock()
		t.Fatalf("WriteAt: %v", err)
	}
	d.mu.Unlock()

	if _, ok, err := d.Get("bad"); ok || err == nil {
		t.Fatalf("Get(bad) after corruption = ok=%v err=%v, want miss with error", ok, err)
	}
	wantGet(t, d, "good", []byte("fine"))
	if st := d.Stats()[0]; st.Errors == 0 {
		t.Fatal("expected an error counted after checksum mismatch")
	}
	d.Close()
}

func TestDiskConcurrent(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{MaxSegmentBytes: 4 << 10})
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := d.Put(key, []byte(key)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
					return
				}
				if v, ok, err := d.Get(key); err != nil || !ok || string(v) != key {
					t.Errorf("Get(%s) = %q ok=%v err=%v", key, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDiskClosed(t *testing.T) {
	d := openDisk(t, t.TempDir(), DiskConfig{})
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if err := d.Put("k", nil); err == nil {
		t.Fatal("Put on closed Disk: want error")
	}
	if _, _, err := d.Get("k"); err == nil {
		t.Fatal("Get on closed Disk: want error")
	}
}

func TestDiskMetricsAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(64)
	d := openDisk(t, t.TempDir(), DiskConfig{Metrics: reg, Events: ring})
	defer d.Close()
	mustPut(t, d, "k", []byte("v"))
	wantGet(t, d, "k", []byte("v"))
	wantMiss(t, d, "nope")
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`elf_store_hits_total{tier="disk"} 1`,
		`elf_store_misses_total{tier="disk"} 1`,
		`elf_store_fills_total{tier="disk"} 1`,
		`elf_store_compactions_total{tier="disk"} 1`,
		`elf_store_entries{tier="disk"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	// Stats reads the series it exposes.
	st := d.Stats()[0]
	for series, v := range map[string]int64{
		"elf_store_hits_total":        int64(st.Hits),
		"elf_store_misses_total":      int64(st.Misses),
		"elf_store_fills_total":       int64(st.Puts),
		"elf_store_compactions_total": int64(st.Compactions),
		"elf_store_entries":           int64(st.Entries),
		"elf_store_bytes":             st.Bytes,
	} {
		if line := fmt.Sprintf("\n%s{tier=\"disk\"} %d\n", series, v); !strings.Contains(out, line) {
			t.Errorf("exposition lacks %q (from Stats %+v)", strings.TrimSpace(line), st)
		}
	}
	kinds := map[string]bool{}
	for _, e := range ring.Snapshot(0) {
		kinds[e.Kind] = true
	}
	for _, want := range []string{obs.EventStoreFill, obs.EventStoreHitDisk, obs.EventStoreCompact} {
		if !kinds[want] {
			t.Errorf("flight recorder missing %s event (got %v)", want, kinds)
		}
	}
}
