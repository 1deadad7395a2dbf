package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"elfetch/internal/obs"
)

// Disk defaults.
const (
	// DefaultMaxBytes bounds a Disk built with MaxBytes <= 0 (1 GiB of
	// live record bytes).
	DefaultMaxBytes = 1 << 30
	// DefaultSegmentBytes rotates the active segment once it exceeds
	// this size (64 MiB), when MaxSegmentBytes is 0.
	DefaultSegmentBytes = 64 << 20
	// checksumLen is the sha256 trailer on every record.
	checksumLen = sha256.Size
	// recordHeaderLen is the length prefix: uint32 key length plus
	// uint32 value length, big-endian.
	recordHeaderLen = 8
	// maxKeyLen and maxValueLen bound one record's parts, so a corrupt
	// length prefix cannot make the opener allocate gigabytes.
	maxKeyLen   = 4 << 10
	maxValueLen = 64 << 20
)

// DiskConfig sizes the persistent tier.
type DiskConfig struct {
	// Dir is the store directory (created if missing). Segment files are
	// named seg-NNNNNNNN.log; nothing else in the directory is touched.
	Dir string
	// MaxBytes is the live-record quota (0 = DefaultMaxBytes).
	// Compaction evicts the oldest live entries beyond it.
	MaxBytes int64
	// MaxSegmentBytes is the rotation threshold (0 = DefaultSegmentBytes).
	MaxSegmentBytes int64
	// Metrics exposes the tier's elf_store_* families under tier="disk".
	// Stats reads the same counters, so nil only keeps them unexposed.
	Metrics *obs.Registry
	// Events receives store_hit_disk / store_fill / store_compact
	// flight-recorder events; nil drops them.
	Events *obs.Ring
	// Logger receives torn-tail and corruption warnings (nil =
	// slog.Default()).
	Logger *slog.Logger
}

// rec locates one live record inside a segment.
type rec struct {
	seg  int    // segment id
	off  int64  // offset of the record header within the segment
	klen int    // key length
	vlen int    // value length
	seq  uint64 // insertion order, for oldest-first eviction
}

func (r rec) size() int64 {
	return recordHeaderLen + int64(r.klen) + int64(r.vlen) + checksumLen
}

// Disk is the persistent tier: append-only segment files of
// length-prefixed, sha256-checksummed records, with an in-memory index
// rebuilt on open.
//
// Record format (all integers big-endian):
//
//	uint32 keyLen | uint32 valLen | key | value | sha256(key ‖ value)
//
// Crash-safety contract: Put appends; the OS may lose an unsynced tail
// on a crash, and a torn final record is detected by its length prefix
// or checksum on the next open, logged, and truncated away — every
// record before it survives intact. Rotation, compaction and Close
// fsync, so a clean shutdown loses nothing. Compaction rewrites the live
// set into fresh segments (superseded records dropped, oldest live
// entries evicted beyond the quota) and installs them with atomic
// renames before deleting the originals, so a crash mid-compaction
// leaves either the old segments, or both (the rewritten records simply
// supersede on replay) — never a hole.
type Disk struct {
	cfg DiskConfig
	log *slog.Logger

	mu      sync.Mutex
	index   map[string]rec
	files   map[int]*os.File // open segment handles (reads via ReadAt)
	segIDs  []int            // sorted live segment ids
	active  int              // id of the append segment
	actSize int64            // bytes written to the active segment

	liveBytes  int64 // record bytes reachable through the index
	totalBytes int64 // record bytes on disk, including superseded
	seq        uint64
	closed     bool

	errs uint64

	// The elf_store_*_total{tier="disk"} counters behind Stats.
	hits        *obs.Counter
	misses      *obs.Counter
	fills       *obs.Counter
	compactions *obs.Counter
}

// errClosed reports an operation on a closed tier.
func errClosed(tier string) error { return fmt.Errorf("store: %s tier is closed", tier) }

// Open opens (or creates) a disk store rooted at cfg.Dir, replaying
// every segment to rebuild the index. A torn or truncated tail — the
// signature of a crash mid-append — is logged and dropped; everything
// before it is served.
func Open(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: DiskConfig.Dir is required")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = DefaultSegmentBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		cfg:   cfg,
		log:   cfg.Logger,
		index: make(map[string]rec),
		files: make(map[int]*os.File),
	}
	if err := d.load(); err != nil {
		d.closeFilesLocked()
		return nil, err
	}
	reg, lbl := cfg.Metrics, obs.L("tier", "disk")
	d.hits = reg.Counter("elf_store_hits_total",
		"Result-store lookups answered, by tier.", lbl)
	d.misses = reg.Counter("elf_store_misses_total",
		"Result-store lookups missed, by tier.", lbl)
	d.fills = reg.Counter("elf_store_fills_total",
		"Results written into the store, by tier.", lbl)
	d.compactions = reg.Counter("elf_store_compactions_total",
		"Completed compaction passes, by tier.", lbl)
	reg.GaugeFunc("elf_store_bytes", "Live bytes held, by tier.",
		func() float64 { return float64(d.stats().Bytes) }, lbl)
	reg.GaugeFunc("elf_store_entries", "Live entries held, by tier.",
		func() float64 { return float64(d.stats().Entries) }, lbl)
	return d, nil
}

// segPath names one segment file.
func (d *Disk) segPath(id int) string {
	return filepath.Join(d.cfg.Dir, fmt.Sprintf("seg-%08d.log", id))
}

// segIDsOnDisk lists existing segment ids in ascending order.
func segIDsOnDisk(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, n := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(n), "seg-%08d.log", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// load replays every segment into the index and prepares the active
// segment for appends. Caller holds no lock (construction only).
func (d *Disk) load() error {
	ids, err := segIDsOnDisk(d.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, id := range ids {
		f, err := os.OpenFile(d.segPath(id), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		good, err := d.replay(id, f)
		if err != nil {
			f.Close()
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		if good < fi.Size() {
			// Torn tail: a crash mid-append left a partial or corrupt
			// record. Drop it so future appends extend a clean prefix.
			d.log.Warn("store: dropping torn segment tail",
				"segment", d.segPath(id), "goodBytes", good, "fileBytes", fi.Size())
			if err := f.Truncate(good); err != nil {
				f.Close()
				return fmt.Errorf("store: truncating torn tail: %w", err)
			}
		}
		d.files[id] = f
		d.segIDs = append(d.segIDs, id)
		d.totalBytes += good
	}
	if len(d.segIDs) == 0 {
		if err := d.openActiveLocked(1); err != nil {
			return err
		}
	} else {
		d.active = d.segIDs[len(d.segIDs)-1]
		fi, err := d.files[d.active].Stat()
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		d.actSize = fi.Size()
	}
	for _, r := range d.index {
		d.liveBytes += r.size()
	}
	return nil
}

// replay scans one segment sequentially, indexing every intact record.
// It returns the offset just past the last good record; anything beyond
// it is torn or corrupt.
func (d *Disk) replay(id int, f *os.File) (int64, error) {
	br := bufferedReaderAt{f: f}
	var off int64
	for {
		var hdr [recordHeaderLen]byte
		if _, err := br.readFull(off, hdr[:]); err != nil {
			return off, nil // clean EOF or short header = end of good data
		}
		klen := int(binary.BigEndian.Uint32(hdr[0:4]))
		vlen := int(binary.BigEndian.Uint32(hdr[4:8]))
		if klen <= 0 || klen > maxKeyLen || vlen < 0 || vlen > maxValueLen {
			d.log.Warn("store: implausible record header, stopping replay",
				"segment", d.segPath(id), "offset", off, "keyLen", klen, "valLen", vlen)
			return off, nil
		}
		body := make([]byte, klen+vlen+checksumLen)
		if _, err := br.readFull(off+recordHeaderLen, body); err != nil {
			return off, nil // truncated body
		}
		key := body[:klen]
		val := body[klen : klen+vlen]
		sum := sha256.Sum256(body[:klen+vlen])
		if !bytes.Equal(sum[:], body[klen+vlen:]) {
			d.log.Warn("store: record checksum mismatch, stopping replay",
				"segment", d.segPath(id), "offset", off, "key", shortKey(string(key)))
			return off, nil
		}
		_ = val
		d.seq++
		d.index[string(key)] = rec{seg: id, off: off, klen: klen, vlen: vlen, seq: d.seq}
		off += recordHeaderLen + int64(klen+vlen+checksumLen)
	}
}

// bufferedReaderAt reads sequentially via ReadAt without seeking the
// file's append offset.
type bufferedReaderAt struct{ f *os.File }

func (b bufferedReaderAt) readFull(off int64, p []byte) (int, error) {
	n, err := b.f.ReadAt(p, off)
	if n < len(p) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	return n, nil
}

// openActiveLocked creates segment id and makes it the append target.
func (d *Disk) openActiveLocked(id int) error {
	f, err := os.OpenFile(d.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.files[id] = f
	d.segIDs = append(d.segIDs, id)
	sort.Ints(d.segIDs)
	d.active = id
	d.actSize = 0
	return d.syncDir()
}

// syncDir flushes directory metadata so newly created/renamed segment
// files survive a crash.
func (d *Disk) syncDir() error {
	dir, err := os.Open(d.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// record appends one flight-recorder event.
func (d *Disk) record(kind, detail string) {
	d.cfg.Events.Add(obs.Event{Kind: kind, Worker: "store", Detail: detail})
}

// encodeRecord renders one record into a buffer.
func encodeRecord(key string, value []byte) []byte {
	buf := make([]byte, recordHeaderLen+len(key)+len(value)+checksumLen)
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(key)))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(value)))
	copy(buf[recordHeaderLen:], key)
	copy(buf[recordHeaderLen+len(key):], value)
	sum := sha256.Sum256(buf[recordHeaderLen : recordHeaderLen+len(key)+len(value)])
	copy(buf[recordHeaderLen+len(key)+len(value):], sum[:])
	return buf
}

// Get returns the stored value for key, verifying its checksum. A
// record that fails verification (silent disk corruption) is dropped
// from the index, logged, and reported as a miss with an error.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, errClosed("disk")
	}
	r, ok := d.index[key]
	if !ok {
		d.misses.Inc()
		return nil, false, nil
	}
	f := d.files[r.seg]
	body := make([]byte, r.klen+r.vlen+checksumLen)
	if _, err := f.ReadAt(body, r.off+recordHeaderLen); err != nil {
		d.errs++
		d.misses.Inc()
		return nil, false, fmt.Errorf("store: reading %s: %w", shortKey(key), err)
	}
	sum := sha256.Sum256(body[:r.klen+r.vlen])
	if !bytes.Equal(sum[:], body[r.klen+r.vlen:]) {
		delete(d.index, key)
		d.liveBytes -= r.size()
		d.errs++
		d.misses.Inc()
		d.log.Warn("store: checksum mismatch on read, entry dropped",
			"key", shortKey(key), "segment", r.seg, "offset", r.off)
		return nil, false, fmt.Errorf("store: checksum mismatch for %s", shortKey(key))
	}
	d.hits.Inc()
	d.record(obs.EventStoreHitDisk, shortKey(key))
	return body[r.klen : r.klen+r.vlen], true, nil
}

// Put appends one record to the active segment, superseding any earlier
// value for key. The segment rotates past MaxSegmentBytes, and the store
// auto-compacts when the live set exceeds the quota or superseded
// garbage exceeds half of it.
func (d *Disk) Put(key string, value []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of (0, %d]", len(key), maxKeyLen)
	}
	if len(value) > maxValueLen {
		return fmt.Errorf("store: value length %d exceeds %d", len(value), maxValueLen)
	}
	buf := encodeRecord(key, value)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed("disk")
	}
	f := d.files[d.active]
	if _, err := f.WriteAt(buf, d.actSize); err != nil {
		d.errs++
		return fmt.Errorf("store: appending %s: %w", shortKey(key), err)
	}
	newRec := rec{seg: d.active, off: d.actSize, klen: len(key), vlen: len(value)}
	d.seq++
	newRec.seq = d.seq
	if old, ok := d.index[key]; ok {
		d.liveBytes -= old.size() // the old record is now garbage
	}
	d.index[key] = newRec
	d.liveBytes += newRec.size()
	d.totalBytes += newRec.size()
	d.actSize += int64(len(buf))
	d.fills.Inc()
	d.record(obs.EventStoreFill, shortKey(key))

	if d.actSize >= d.cfg.MaxSegmentBytes {
		if err := d.rotateLocked(); err != nil {
			return err
		}
	}
	if d.liveBytes > d.cfg.MaxBytes || d.totalBytes-d.liveBytes > d.cfg.MaxBytes/2 {
		return d.compactLocked()
	}
	return nil
}

// rotateLocked seals the active segment (fsync) and starts the next one.
func (d *Disk) rotateLocked() error {
	if err := d.files[d.active].Sync(); err != nil {
		return fmt.Errorf("store: sealing segment %d: %w", d.active, err)
	}
	return d.openActiveLocked(d.active + 1)
}

// Compact rewrites the live set into fresh segments: superseded records
// are dropped, and the oldest live entries are evicted until the live
// set fits in 90% of MaxBytes (headroom, so one more Put does not
// immediately re-trigger compaction). New segments are written complete,
// fsynced, and installed with atomic renames before the old segments are
// removed.
func (d *Disk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed("disk")
	}
	return d.compactLocked()
}

func (d *Disk) compactLocked() error {
	// Live records, oldest first — eviction drops from the front.
	type liveRec struct {
		key string
		rec rec
	}
	live := make([]liveRec, 0, len(d.index))
	for k, r := range d.index {
		live = append(live, liveRec{k, r})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].rec.seq < live[j].rec.seq })

	target := d.cfg.MaxBytes - d.cfg.MaxBytes/10
	keep := live
	var keepBytes int64
	for i := len(live) - 1; i >= 0; i-- {
		sz := live[i].rec.size()
		if keepBytes+sz > target {
			keep = live[i+1:]
			break
		}
		keepBytes += sz
	}
	if keepBytes == 0 && len(live) > 0 {
		// Quota smaller than the newest record: keep just that record so
		// the store never silently empties itself.
		keep = live[len(live)-1:]
		keepBytes = keep[0].rec.size()
	}
	evicted := len(live) - len(keep)

	// Rewrite the kept records into fresh segments numbered after every
	// existing one, via tmp files + rename so a crash mid-compaction can
	// never expose a half-written segment.
	nextID := d.active + 1
	var (
		newSegs  []int
		newFiles = make(map[int]*os.File)
		newIndex = make(map[string]rec, len(keep))
		cur      *os.File
		curID    int
		curSize  int64
	)
	fail := func(err error) error {
		for _, f := range newFiles {
			name := f.Name()
			f.Close()
			os.Remove(name)
		}
		return err
	}
	openNext := func() error {
		id := nextID
		nextID++
		f, err := os.OpenFile(d.segPath(id)+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		newFiles[id] = f
		newSegs = append(newSegs, id)
		cur, curID, curSize = f, id, 0
		return nil
	}
	if err := openNext(); err != nil {
		return fail(err)
	}
	for _, lr := range keep {
		f := d.files[lr.rec.seg]
		buf := make([]byte, lr.rec.size())
		if _, err := f.ReadAt(buf, lr.rec.off); err != nil {
			// Unreadable during compaction: drop it, like a Get would.
			d.log.Warn("store: dropping unreadable record during compaction",
				"key", shortKey(lr.key), "err", err)
			d.errs++
			continue
		}
		if curSize+int64(len(buf)) > d.cfg.MaxSegmentBytes && curSize > 0 {
			if err := cur.Sync(); err != nil {
				return fail(fmt.Errorf("store: %w", err))
			}
			if err := openNext(); err != nil {
				return fail(err)
			}
		}
		if _, err := cur.WriteAt(buf, curSize); err != nil {
			return fail(fmt.Errorf("store: %w", err))
		}
		d.seq++
		newIndex[lr.key] = rec{seg: curID, off: curSize, klen: lr.rec.klen,
			vlen: lr.rec.vlen, seq: d.seq}
		curSize += int64(len(buf))
	}
	for _, f := range newFiles {
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("store: %w", err))
		}
	}
	// Install: rename every tmp into place, fsync the directory, then
	// retire the old segments. A crash between renames and removes leaves
	// old and new side by side; replay order makes the new records win.
	for _, id := range newSegs {
		if err := os.Rename(d.segPath(id)+".tmp", d.segPath(id)); err != nil {
			return fail(fmt.Errorf("store: installing compacted segment: %w", err))
		}
	}
	if err := d.syncDir(); err != nil {
		return err
	}
	oldIDs, oldFiles := d.segIDs, d.files
	d.index = newIndex
	d.files = newFiles
	d.segIDs = append([]int(nil), newSegs...)
	d.liveBytes = 0
	for _, r := range d.index {
		d.liveBytes += r.size()
	}
	d.totalBytes = d.liveBytes
	for _, id := range oldIDs {
		oldFiles[id].Close()
		if err := os.Remove(d.segPath(id)); err != nil {
			d.log.Warn("store: removing retired segment", "segment", id, "err", err)
		}
	}
	// The newest compacted segment becomes the append target.
	d.active = newSegs[len(newSegs)-1]
	d.actSize = curSize
	d.compactions.Inc()
	d.record(obs.EventStoreCompact,
		fmt.Sprintf("kept %d entries (%d evicted), %d segments", len(newIndex), evicted, len(newSegs)))
	return d.syncDir()
}

// stats snapshots the counters.
func (d *Disk) stats() TierStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return TierStats{
		Tier:        "disk",
		Hits:        d.hits.Value(),
		Misses:      d.misses.Value(),
		Puts:        d.fills.Value(),
		Entries:     len(d.index),
		Bytes:       d.liveBytes,
		Compactions: d.compactions.Value(),
		Segments:    len(d.segIDs),
		Errors:      d.errs,
	}
}

// Stats snapshots the tier.
func (d *Disk) Stats() []TierStats { return []TierStats{d.stats()} }

// closeFilesLocked closes every open segment handle.
func (d *Disk) closeFilesLocked() {
	for _, f := range d.files {
		f.Close()
	}
}

// Close fsyncs the active segment and releases every handle.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.files[d.active].Sync()
	d.closeFilesLocked()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

var _ Store = (*Disk)(nil)
