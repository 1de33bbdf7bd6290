// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in a closed loop for a fixed wall-clock window, checks
// every op's output, and prints the result as one JSON object on the
// last line of standard output:
//
//	perfbench -workload paper-quick -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, op latency percentiles, simulator events per second, peak
// memory). With -trace 1 the workload is measured twice — untraced,
// then under a CPU profile with spans recorded at each layer boundary
// the benchmark calls — and the metrics are the per-layer ones; the
// spans, the CPU profile and the per-layer table are written under
// -out. run.sh in this directory builds the benchmark from the
// checkout and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/radio"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 31

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
}

// measurement is what one measured phase of a workload produced.
type measurement struct {
	setups    []time.Duration // each set-up repetition
	ops       []time.Duration // latency of every op of the window; failedLatency for failed ones
	wall      time.Duration   // the window, from the first op's start to the last op's end
	events    uint64          // simulator events the window's ops processed
	attempted int
	failed    int                // ops that failed or whose output failed its check
	peakRSS   int64              // bytes, of this process
	cpu       time.Duration      // CPU time this process spent in the window
	layers    map[string]float64 // per-layer values the workload measured itself
	inputs    map[string]any     // measured input properties of the workload

	// Traced phases only.
	profile    []byte // gzipped pprof CPU profile of the window
	allocBytes uint64 // heap bytes allocated in the window
	gcCycles   uint64 // GC cycles completed in the window
}

// workloads maps a workload name to its runner; spans is nil for an
// untraced phase.
var workloads = map[string]func(o options, spans *spanLog) (*measurement, error){
	"paper-quick": runPaperQuick,
	"serve-mixed": runServeMixed,
	"scale-10k":   runScale10k,
}

// metricUnits names every metric the benchmark reports, with its unit:
// the end-to-end ones first, then the per-layer ones.
var (
	endToEndUnits = []unitOf{
		{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
		{"sim_events_per_s", "1/s"}, {"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MB"},
	}
	perLayerUnits = append(selfTimeUnits(), []unitOf{
		{"netsim.build_ms", "ms"},
		{"sim.events", "count"},
		{"radio.transmissions", "count"},
		{"radio.deliveries", "count"},
		{"radio.collisions", "count"},
		{"radio.delivery_ratio", "ratio"},
		{"core.handshakes", "count"},
		{"core.handshake_failures", "count"},
		{"core.handshake_success_ratio", "ratio"},
		{"runtime.alloc_mb_per_op", "MB/op"},
		{"runtime.gc_cycles_per_op", "1/op"},
		{"sweep.cell_ms", "ms"},
		{"sweep.wait_ms", "ms"},
		{"sweep.cache_hit_ratio", "ratio"},
		{"service.submit_ms", "ms"},
		{"service.events_ms", "ms"},
		{"service.artifact_ms", "ms"},
		{"service.queue_wait_ms", "ms"},
		{"service.exec_ms", "ms"},
		{"service.dedupe_hits", "count"},
		{"service.rejected_429", "count"},
		{"bench.trace_overhead_frac", "ratio"},
	}...)
)

type unitOf struct{ name, unit string }

// selfTimeUnits lists <layer>.self_ms, the CPU time charged to each
// layer per op.
func selfTimeUnits() []unitOf {
	var out []unitOf
	for _, l := range layers {
		out = append(out, unitOf{l + ".self_ms", "ms"})
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-quick, serve-mixed or scale-10k")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory traced runs write their spans, profile and layer table under")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	plain, err := w(o, nil)
	if err != nil {
		return err
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed}
	if o.trace == 0 {
		res.Metrics = endToEnd(plain)
	} else {
		spans := newSpanLog()
		traced, err := w(o, spans)
		if err != nil {
			return err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if res.Metrics, err = perLayer(plain, traced); err != nil {
			return err
		}
		if err := writeTrace(o, traced, spans, res.Metrics); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics of an untraced phase.
// op_p90_ms is left out below minOpsForP90 ops.
func endToEnd(m *measurement) map[string]metric {
	v := map[string]float64{
		"setup_s":          median(m.setups).Seconds(),
		"ops_per_s":        float64(len(m.ops)) / m.wall.Seconds(),
		"op_p50_ms":        ms(median(m.ops)),
		"sim_events_per_s": float64(m.events) / m.wall.Seconds(),
		"cpu_ms_per_op":    ms(m.cpu) / float64(len(m.ops)),
		"peak_rss_mb":      float64(m.peakRSS) / 1e6,
	}
	if p, ok := p90(m.ops); ok {
		v["op_p90_ms"] = ms(p)
	}
	return withUnits(v, endToEndUnits)
}

// perLayer derives the per-layer metrics of a traced phase; plain is
// the untraced phase of the same run, for the tracing overhead. Layers
// a workload does not exercise read 0.
func perLayer(plain, traced *measurement) (map[string]metric, error) {
	samples, err := parseProfile(traced.profile)
	if err != nil {
		return nil, err
	}
	ops := float64(len(traced.ops))
	v := map[string]float64{}
	for _, u := range perLayerUnits {
		v[u.name] = 0
	}
	for l, ns := range attribute(samples) {
		v[l+".self_ms"] = float64(ns) / 1e6 / ops
	}
	v["runtime.alloc_mb_per_op"] = float64(traced.allocBytes) / 1e6 / ops
	v["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / ops
	for k, x := range traced.layers {
		v[k] = x
	}
	plainRate := float64(len(plain.ops)) / plain.wall.Seconds()
	tracedRate := ops / traced.wall.Seconds()
	v["bench.trace_overhead_frac"] = (plainRate - tracedRate) / plainRate
	return withUnits(v, perLayerUnits), nil
}

func withUnits(v map[string]float64, units []unitOf) map[string]metric {
	out := make(map[string]metric, len(v))
	for _, u := range units {
		if x, ok := v[u.name]; ok {
			out[u.name] = metric{Value: x, Unit: u.unit}
		}
	}
	return out
}

// addResultCounts sums the deterministic simulator counters of a set
// of results into the per-layer values.
func addResultCounts(v map[string]float64, results []netsim.Result) {
	var events, tx, deliv, coll, noise, hs, hsFail uint64
	for _, r := range results {
		events += r.Events
		for _, st := range []radio.Stats{r.SensorStats, r.WifiStats} {
			tx += st.Transmissions
			deliv += st.Deliveries
			coll += st.Collisions
			noise += st.NoiseLosses
		}
		hs += r.AgentStats.Handshakes
		hsFail += r.AgentStats.HandshakeFailures
	}
	v["sim.events"] = float64(events)
	v["radio.transmissions"] = float64(tx)
	v["radio.deliveries"] = float64(deliv)
	v["radio.collisions"] = float64(coll)
	if n := deliv + coll + noise; n > 0 {
		v["radio.delivery_ratio"] = float64(deliv) / float64(n)
	}
	v["core.handshakes"] = float64(hs)
	v["core.handshake_failures"] = float64(hsFail)
	if hs > 0 {
		v["core.handshake_success_ratio"] = float64(hs-hsFail) / float64(hs)
	}
}

// procTrace profiles this process over a traced window: a CPU profile
// plus the allocation and GC-cycle counters. A nil *procTrace (an
// untraced window) does nothing.
type procTrace struct {
	cpu     bytes.Buffer
	samples []metrics.Sample
}

var runtimeCounters = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func startProcTrace(on bool) (*procTrace, error) {
	if !on {
		return nil, nil
	}
	p := &procTrace{}
	p.samples = readCounters()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

func (p *procTrace) stop(m *measurement) {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	end := readCounters()
	m.allocBytes = end[0].Value.Uint64() - p.samples[0].Value.Uint64()
	m.gcCycles = end[1].Value.Uint64() - p.samples[1].Value.Uint64()
	m.profile = p.cpu.Bytes()
}

func readCounters() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// usage is the resource use of this process.
type usage struct {
	peakRSS int64         // bytes
	cpu     time.Duration // user plus system CPU time
}

// selfUsage returns this process's resource use so far.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		peakRSS: ru.Maxrss * 1024,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// writeTrace writes a traced run's spans, CPU profile and per-layer
// table (with the workload's measured input properties and each
// layer's share of the profiled CPU time) under o.out.
func writeTrace(o options, traced *measurement, spans *spanLog, v map[string]metric) error {
	dir := filepath.Join(o.out, "trace", o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := spans.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), traced.profile, 0o644); err != nil {
		return err
	}
	samples, err := parseProfile(traced.profile)
	if err != nil {
		return err
	}
	byLayer := attribute(samples)
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	share := map[string]float64{}
	for l, ns := range byLayer {
		share[l] = float64(ns) / float64(max(total, 1))
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Seconds  int                `json:"seconds"`
		Ops      int                `json:"ops"`
		Inputs   map[string]any     `json:"inputs"`
		CPUShare map[string]float64 `json:"cpu_share"`
		Metrics  map[string]metric  `json:"metrics"`
	}{o.workload, o.seed, o.seconds, len(traced.ops), traced.inputs, share, v}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: traced run written to", dir)
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(enc, '\n'), 0o644)
}

// printTable prints the metrics by name and unit to standard error.
func printTable(r result) {
	names := slices.Sorted(maps.Keys(r.Metrics))
	fmt.Fprintf(os.Stderr, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Failed == 0)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}
