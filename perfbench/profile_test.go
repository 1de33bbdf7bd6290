package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"slices"
	"testing"
)

// pb appends protobuf fields, enough to hand-build a pprof profile.
type pb []byte

func (b *pb) varint(num int, x uint64) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3)
	*b = binary.AppendUvarint(*b, x)
}

func (b *pb) bytes(num int, data []byte) {
	*b = binary.AppendUvarint(*b, uint64(num)<<3|2)
	*b = binary.AppendUvarint(*b, uint64(len(data)))
	*b = append(*b, data...)
}

func packed(xs ...uint64) []byte {
	var out []byte
	for _, x := range xs {
		out = binary.AppendUvarint(out, x)
	}
	return out
}

// handProfile builds a gzipped CPU profile. Each location is a list of
// function names, innermost (inlined) first; each sample is a list of
// location indexes, leaf first, with its CPU nanoseconds.
func handProfile(t *testing.T, locs [][]string, samples []struct {
	locs []uint64
	ns   uint64
}) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	index := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pb
		vt.varint(1, index(st[0]))
		vt.varint(2, index(st[1]))
		p.bytes(1, vt)
	}
	for _, s := range samples {
		var sp pb
		sp.bytes(1, packed(s.locs...))
		sp.bytes(2, packed(1, s.ns))
		p.bytes(2, sp)
	}
	funcID := map[string]uint64{}
	for li, fns := range locs {
		var lp pb
		lp.varint(1, uint64(li+1))
		for _, fn := range fns {
			if funcID[fn] == 0 {
				funcID[fn] = uint64(len(funcID) + 1)
				var fp pb
				fp.varint(1, funcID[fn])
				fp.varint(2, index(fn))
				p.bytes(5, fp)
			}
			var line pb
			line.varint(1, funcID[fn])
			lp.bytes(4, line)
		}
		p.bytes(4, lp)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	locs := [][]string{
		{"runtime.mapassign_fast64"},                                       // 1
		{"bulktx/internal/energy.(*Meter).settle"},                         // 2
		{"bulktx/internal/netsim.runInstrumented"},                         // 3
		{"runtime.gcBgMarkWorker"},                                         // 4
		{"runtime.goexit"},                                                 // 5
		{"runtime.memhash64", "bulktx/internal/radio.(*Channel).transmit"}, // 6: inlined
		{"bulktx/internal/mempool.(*Slab[...]).Get"},                       // 7: not a layer
		{"bulktx/internal/mac.(*Pool).New"},                                // 8
		{"main.runPaperQuick"},                                             // 9
		{"bulktx/internal/sweep.(*Pool).run.func1"},                        // 10
	}
	samples := []struct {
		locs []uint64
		ns   uint64
	}{
		{[]uint64{1, 2, 3}, 30},  // map frame under energy -> energy
		{[]uint64{4, 5}, 20},     // GC worker -> runtime
		{[]uint64{6, 3}, 7},      // inlined runtime frame inside radio -> radio
		{[]uint64{7, 8, 3}, 5},   // mempool is no layer: its caller mac is
		{[]uint64{9, 10, 5}, 3},  // harness code under the pool -> bench
		{[]uint64{1, 10, 5}, 11}, // map frame under the pool -> sweep
	}
	got, err := parseProfile(handProfile(t, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(samples))
	}
	if want := []string{"runtime.memhash64", "bulktx/internal/radio.(*Channel).transmit",
		"bulktx/internal/netsim.runInstrumented"}; !slices.Equal(got[2].stack, want) {
		t.Errorf("inlined stack %q, want %q", got[2].stack, want)
	}
	byLayer := attribute(got)
	want := map[string]int64{"energy": 30, "runtime": 20, "radio": 7, "mac": 5, "bench": 3, "sweep": 11}
	if len(byLayer) != len(want) {
		t.Errorf("attribution %v, want %v", byLayer, want)
	}
	for l, ns := range want {
		if byLayer[l] != ns {
			t.Errorf("%s: %d ns, want %d (all: %v)", l, byLayer[l], ns, byLayer)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parsed a non-gzip profile")
	}
}
