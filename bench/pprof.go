package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// sample is one CPU-profile stack, leaf first, with its weight.
type sample struct {
	frames []string // function names; inlined calls are frames of their own
	weight float64
}

// readProfile decodes a gzipped pprof CPU profile (the profile.proto
// wire format runtime/pprof writes) into stacks. Only the fields the
// shares below need are read: samples, locations, functions, strings.
func readProfile(path string) ([]sample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function -> string index
		strs    []string
	)
	err = fields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, data)
				case 2:
					s.values = appendUints(s.values, wire, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples, nanoseconds]; weigh by the last.
		sm := sample{weight: float64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				name := "?"
				if i := fnName[f]; i < uint64(len(strs)) {
					name = strs[i]
				}
				sm.frames = append(sm.frames, name)
			}
		}
		out = append(out, sm)
	}
	return out, nil
}

// fields walks one protobuf message, calling f with each field's number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func fields(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding.
func appendUints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pkgOf returns the package path of a Go symbol name such as
// "elfetch/internal/pipeline.(*Machine).Cycle".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// pkgBucket maps a leaf function to its pkg.* self-time bucket.
func pkgBucket(fn string) string {
	if strings.HasPrefix(fn, "runtime.duffcopy") {
		return "duffcopy"
	}
	p := pkgOf(fn)
	switch {
	case strings.HasPrefix(p, "elfetch/internal/"):
		b := strings.TrimPrefix(p, "elfetch/internal/")
		for _, k := range pkgs {
			if k == b {
				return b
			}
		}
		return "other"
	case p == "runtime":
		return "runtime"
	case p == "encoding/json":
		return "json"
	case p == "net" || strings.HasPrefix(p, "net/"):
		return "net"
	case p == "syscall" || p == "internal/poll" || strings.HasPrefix(p, "internal/runtime/syscall"):
		return "syscall"
	}
	return "other"
}

// shares aggregates profile samples into the stage.* and pkg.* shares:
// a stage's share is the weight of stacks whose frame directly under
// Machine.Cycle is that stage, over all stacks through Cycle; a
// package's share is its leaf (self) weight over all weight.
func shares(samples []sample) (stage, pkg map[string]float64) {
	stage, pkg = map[string]float64{}, map[string]float64{}
	var total, cycle float64
	for _, s := range samples {
		if len(s.frames) == 0 || hostRef(s) {
			continue
		}
		total += s.weight
		pkg[pkgBucket(s.frames[0])] += s.weight
		for i := len(s.frames) - 1; i >= 0; i-- {
			if s.frames[i] != "elfetch/internal/pipeline.(*Machine).Cycle" {
				continue
			}
			cycle += s.weight
			st := "other"
			if i > 0 {
				if name, ok := stageOf[s.frames[i-1]]; ok {
					st = name
				}
			}
			stage[st] += s.weight
			break
		}
	}
	for k := range stage {
		stage[k] /= cycle
	}
	for k := range pkg {
		pkg[k] /= total
	}
	return stage, pkg
}

// hostRef reports a sample of the benchmark's own reference kernel.
func hostRef(s sample) bool {
	for _, f := range s.frames {
		if strings.HasPrefix(f, "main.hostRef") {
			return true
		}
	}
	return false
}

// workerShares aggregates the elfd worker's profile: JSON and scheduler
// shares are inclusive (any frame in the package, allocation included),
// HTTP is the self time of the network stack, GC the background and
// assist marking and sweeping.
func workerShares(samples []sample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.frames) == 0 {
			continue
		}
		total += s.weight
		var json, sched, gc bool
		for _, f := range s.frames {
			switch p := pkgOf(f); {
			case p == "encoding/json":
				json = true
			case p == "elfetch/internal/sched":
				sched = true
			case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.gcAssistAlloc"),
				strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"):
				gc = true
			}
		}
		if json {
			out["json"] += s.weight
		}
		if sched {
			out["sched"] += s.weight
		}
		if gc {
			out["gc"] += s.weight
		}
		if b := pkgBucket(s.frames[0]); b == "net" || b == "syscall" {
			out["http"] += s.weight
		}
	}
	for k := range out {
		out[k] /= total
	}
	return out
}
