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

// layers are the repository modules the benchmark attributes CPU time
// to, in report order. "runtime" takes samples with no frame in any
// layer; "bench" takes the harness's own code, package main.
var layers = []string{
	"netsim", "topo", "sim", "radio", "energy", "mac", "core",
	"routing", "workload", "sweep", "service", "runtime", "bench",
}

// cpuSample is one profile sample: its call stack as function names,
// innermost first with inlined calls expanded, and its CPU time.
type cpuSample struct {
	stack []string
	cpuNS int64
}

// layerOf names the layer a function belongs to: the module of a
// bulktx/internal/<module> function when the module is a layer, and
// bench for the harness's package main.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, "bulktx/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest && l != "runtime" && l != "bench" {
			return l, true
		}
	}
	return "", false
}

// attribute charges each sample to the innermost frame that lies in a
// layer, so a runtime map frame under energy.(*Meter).settle counts as
// energy; samples with no layer frame go to runtime. The result maps
// layer to CPU nanoseconds.
func attribute(samples []cpuSample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		owner := "runtime"
		for _, fn := range s.stack {
			if l, ok := layerOf(fn); ok {
				owner = l
				break
			}
		}
		out[owner] += s.cpuNS
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) far
// enough to recover each sample's stack and CPU nanoseconds.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		unitIdx    []int64              // sample_type unit string index, per value
		funcName   = map[uint64]int64{} // function id -> name string index
		locFuncs   = map[uint64][]uint64{}
		rawSamples []rawSample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 2 {
					unitIdx = append(unitIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, pb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, pb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); take the
	// nanoseconds column, or the last one when no unit says so.
	col := len(unitIdx) - 1
	for i, u := range unitIdx {
		if str(u) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if col >= len(rs.values) {
			return nil, errors.New("profile: sample has fewer values than sample types")
		}
		s := cpuSample{cpuNS: rs.values[col]}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none this decoder
// reads.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value v) or packed (data holds the varints).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
