package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running runtime/pprof CPU profile of this process.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns its samples' share per layer bucket.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return bucketShares(stacks), nil
}

// stack is one profile sample: its function names from leaf to root
// (inlined frames expanded) and its sample count.
type stack struct {
	frames []string
	count  int64
}

// bucketShares buckets every sample by layer (bucketOf) and returns each
// bucket's share of all samples; every cpuBuckets entry is present.
func bucketShares(stacks []stack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = float64(counts[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// bucketOf names the layer a sample's CPU time belongs to. A sample with
// any garbage-collector frame on its stack is gc (mark assists run inside
// the allocating caller, so this test comes first). Otherwise the sample
// belongs to the leaf-most frame whose package is a layer of this repo or
// of the serving stack: a leaf in a shared helper (runtime.mallocgc,
// memmove, sort, strconv, encoding/json) is charged to the layer that
// called it.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if b := layerOf(pkgOf(f)); b != "" {
			return b
		}
	}
	return "other"
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// pkgOf extracts the import path from a symbol name such as
// "repro/internal/rtime/wheel.(*Wheel[go.shape.int]).Pop". Type
// arguments can hold other import paths, so only the text before the
// first '[' is searched.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps an import path onto a cpuBuckets entry, "" for packages
// that are helpers rather than layers.
func layerOf(pkg string) string {
	switch pkg {
	case "repro/internal/rua":
		return "rua"
	case "repro/internal/rtime/wheel":
		return "wheel"
	case "repro/internal/sim", "repro/internal/gsim", "repro/internal/multi", "repro/internal/resource",
		"repro/internal/sched", "repro/internal/task", "repro/internal/uam", "repro/internal/tuf",
		"repro/internal/rtime", "repro/internal/fault", "repro/internal/stoch":
		return "engine"
	case "repro/internal/obs", "repro/internal/trace/span", "repro/internal/trace/check",
		"repro/internal/metrics/hist", "repro/internal/metrics/series", "repro/internal/metrics/ops",
		"repro/internal/metrics/predict":
		return "obs"
	case "repro/internal/trace", "repro/internal/report", "repro/internal/artifact":
		return "render"
	case "repro/internal/serve", "net/http", "net", "net/textproto", "net/http/internal", "internal/poll":
		return "http"
	case "repro/internal/experiment", "repro/internal/runner", "repro/internal/metrics", "repro/internal/analysis":
		return "experiment"
	case "main":
		return "bench"
	}
	return ""
}

// parseProfile decodes a (possibly gzipped) pprof protobuf profile into
// its samples, counting the first sample value. Only the fields bucketing
// needs are read: Profile.sample/location/function/string_table,
// Sample.location_id/value, Location.id/line, Line.function_id and
// Function.id/name.
func parseProfile(data []byte) ([]stack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked value (data nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
