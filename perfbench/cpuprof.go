package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library has no
// public decoder, so this file reads the few fields bucketing needs: each
// sample's location ids and values, each location's (inlined) function ids,
// and each function's name.

const modulePrefix = "toposhot/internal/"

// Buckets that are not a toposhot/internal package.
const (
	bucketRuntime = "runtime"    // no toposhot frame on the stack
	bucketGC      = "runtime.gc" // GC background workers
	bucketHarness = "perfbench"  // the benchmark's own code, no layer below it
)

// gcRoots are the background goroutines whose samples are GC work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

type pbLocation struct{ funcs []uint64 } // innermost (inlined) first

// cpuShares decodes a CPU profile and returns each bucket's share of CPU
// time in percent, plus the number of samples. A sample is charged to the
// innermost toposhot/internal/<pkg> frame on its stack, so runtime map and
// memory helpers called from a layer count against that layer.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples []sample
		strs    []string
		locs    = map[uint64]pbLocation{}
		names   = map[uint64]int64{} // function id → string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// Values are [samples/count, cpu/nanoseconds].
			if len(vals) >= 2 {
				s.ns = int64(vals[1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var loc pbLocation
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = loc
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			names[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	fname := func(fid uint64) string {
		if i := names[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}

	ns := map[string]int64{}
	var total int64
	for _, s := range samples {
		b := bucketOf(s.locs, locs, fname)
		ns[b] += s.ns
		total += s.ns
	}
	shares := make(map[string]float64, len(ns))
	for b, v := range ns {
		if total > 0 {
			shares[b] = 100 * float64(v) / float64(total)
		}
	}
	return shares, len(samples), nil
}

// bucketOf walks a stack from the leaf outwards and returns the package of
// the first toposhot/internal frame, the harness for a benchmark frame met
// first, runtime.gc for GC background workers, and runtime otherwise.
func bucketOf(stack []uint64, locs map[uint64]pbLocation, fname func(uint64) string) string {
	gc := false
	for _, lid := range stack {
		for _, fid := range locs[lid].funcs {
			name := fname(fid)
			if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
			if strings.HasPrefix(name, "main.") {
				return bucketHarness
			}
			for _, root := range gcRoots {
				if name == root {
					gc = true
				}
			}
		}
	}
	if gc {
		return bucketGC
	}
	return bucketRuntime
}

// appendVarints appends a repeated varint field, packed (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: varint fields
// pass their value in v, length-delimited fields their bytes in b. Fixed
// 32/64-bit fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
