package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the modules a CPU-profile sample can be charged to, in
// report order. "runtime" holds GC and allocation, "bench" this
// benchmark's own code (tracing overhead), "other" everything else.
var cpuModules = []string{"sim", "netsim", "device", "pkt", "feed", "market", "firm", "orderentry", "exchange", "replication", "runtime", "bench", "other"}

// gcAllocPrefixes name the runtime functions whose samples are GC or
// allocation work.
var gcAllocPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.wbBuf", "runtime.(*gcWork)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
}

// moduleOf charges one sample, given its frames innermost first, to the
// innermost frame that is a tradenet/internal module, GC or allocation, or
// this benchmark.
func moduleOf(frames []string) string {
	const internal = "tradenet/internal/"
	for _, fn := range frames {
		for _, p := range gcAllocPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime"
			}
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(fn, internal); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}

// cpuSample is one decoded profile sample: its frames, innermost first,
// and its sample count.
type cpuSample struct {
	frames []string
	count  int64
}

// attribute sums sample counts per module. Modules outside cpuModules (a
// tradenet/internal package the report does not name) go under "other".
func attribute(samples []cpuSample) (byModule map[string]int64, total int64) {
	byModule = make(map[string]int64)
	named := make(map[string]bool, len(cpuModules))
	for _, m := range cpuModules {
		named[m] = true
	}
	for _, s := range samples {
		m := moduleOf(s.frames)
		if !named[m] {
			m = "other"
		}
		byModule[m] += s.count
		total += s.count
	}
	return byModule, total
}

// parseCPUProfile decodes a gzipped profile.proto as runtime/pprof writes
// it into samples with symbolised frames. It reads only the fields
// attribution needs: samples, locations with their inline lines,
// functions and the string table.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64 // the first is the sample count
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { s.vals = append(s.vals, x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errors.New("cpu profile: sample without values")
		}
		cs := cpuSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx, ok := fnName[fn]
				if !ok || idx < 0 || idx >= int64(len(strs)) {
					return nil, errors.New("cpu profile: dangling function reference")
				}
				cs.frames = append(cs.frames, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbFields walks the top-level fields of one protobuf message, calling fn
// with the field number and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbRepeated delivers a repeated varint field given either one unpacked
// value (data nil) or a packed run.
func pbRepeated(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning 0 bytes consumed on truncation.
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
