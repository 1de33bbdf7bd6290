// Command bcp-bench measures the repository's core performance
// benchmarks with testing.Benchmark and writes the results as JSON, so
// the performance trajectory of the event core is tracked in-tree from
// PR to PR (BENCH_PR2.json is the first committed baseline).
//
// Usage:
//
//	bcp-bench [-o BENCH_PR2.json] [-benchtime 1s]
//
// The emitted JSON carries ns/op, B/op, allocs/op and any custom
// benchmark metrics (events/s for the simulation throughput benchmark)
// plus enough environment metadata to compare runs.
//
// With -compare, bcp-bench instead runs only the simulation-throughput
// benchmark, compares its events/s against the named baseline file and
// exits non-zero when throughput regressed by more than -max-regress
// (default 25%) — the CI guard against performance rot:
//
//	bcp-bench -compare BENCH_PR2.json -benchtime 1s
//
// With -scaling, bcp-bench instead sweeps the big-topology scaling
// scenario over -scaling-n node counts (default 1k/5k/10k/50k/100k)
// and writes the curve — build time, events, events/s and bytes/node
// per N — as a scaling report (BENCH_PR6.json is the committed
// baseline). -scaling-compare measures the same sweep and gates it
// against a committed curve: event counts must match exactly
// (they are deterministic), events/s within -max-regress:
//
//	bcp-bench -scaling -o BENCH_PR6.json
//	bcp-bench -scaling-compare BENCH_PR6.json -scaling-n 1000,5000
//
// The -cpuprofile/-memprofile flags capture pprof profiles of the
// measured benchmarks, for digging into where a regression flagged by
// the gate actually comes from:
//
//	bcp-bench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bulktx/internal/bench"
	"bulktx/internal/cli"
	"bulktx/internal/telemetry"
)

// report is the serialized form of one bcp-bench run.
type report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []benchLine `json:"benchmarks"`
}

type benchLine struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// scalingReport is the serialized form of one -scaling sweep.
type scalingReport struct {
	GoVersion string               `json:"go_version"`
	GOOS      string               `json:"goos"`
	GOARCH    string               `json:"goarch"`
	NumCPU    int                  `json:"num_cpu"`
	SimSecs   float64              `json:"sim_duration_s"`
	Points    []bench.ScalingPoint `json:"points"`
}

func main() {
	testing.Init() // register test.* flags so benchtime is settable
	out := flag.String("o", "BENCH_PR2.json", "output JSON path")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark measurement time")
	compare := flag.String("compare", "", "baseline JSON: compare throughput instead of writing a report")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional events/s regression under -compare and -scaling-compare")
	scaling := flag.Bool("scaling", false, "sweep the big-topology scaling scenario and write a scaling report instead of the core benchmarks")
	scalingN := flag.String("scaling-n", "", "comma-separated node counts for the scaling sweep (default 1000,5000,10000,50000,100000)")
	scalingCompare := flag.String("scaling-compare", "", "baseline scaling JSON: measure the sweep and gate it instead of writing a report")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the benchmarks to this file")
	memProf := flag.String("memprofile", "", "write a heap profile after the benchmarks to this file")
	tel := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if tel.HandleVersion(os.Stdout, "bcp-bench") {
		return
	}

	// testing.Benchmark reads the package-level benchtime flag.
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "bcp-bench: set benchtime: %v\n", err)
		os.Exit(1)
	}

	stopCPU := func() error { return nil }
	if *cpuProf != "" {
		var err error
		if stopCPU, err = telemetry.StartCPUProfile(*cpuProf); err != nil {
			fmt.Fprintf(os.Stderr, "bcp-bench: %v\n", err)
			os.Exit(1)
		}
	}
	// finishProfiles flushes both profiles once the measured work is
	// done; every exit path below that ran benchmarks goes through it.
	finishProfiles := func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "bcp-bench: %v\n", err)
			os.Exit(1)
		}
		if *memProf != "" {
			if err := telemetry.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintf(os.Stderr, "bcp-bench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *compare != "" {
		err := compareThroughput(*compare, *maxRegress)
		finishProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scalingCompare != "" {
		err := compareScalingSweep(*scalingCompare, *scalingN, *maxRegress)
		finishProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *scaling {
		// The scaling curve is a different schema from the core report;
		// default it to its own baseline file unless -o was given.
		path := *out
		if !flagWasSet("o") {
			path = "BENCH_PR6.json"
		}
		err := writeScalingReport(path, *scalingN)
		finishProfiles()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcp-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Benchtime: benchtime.String(),
	}
	for _, b := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"ScheduleRun", bench.ScheduleRun},
		{"ScheduleCancel", bench.ScheduleCancel},
		{"TimerReset", bench.TimerReset},
		{"SimulationThroughput", bench.SimulationThroughput},
	} {
		fmt.Fprintf(os.Stderr, "running %s...\n", b.name)
		r := testing.Benchmark(b.fn)
		line := benchLine{
			Name:        b.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			line.Extra = r.Extra
		}
		rep.Benchmarks = append(rep.Benchmarks, line)
		fmt.Fprintf(os.Stderr, "  %s\t%s\n", b.name, r.String())
	}
	finishProfiles()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcp-bench: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bcp-bench: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// compareThroughput measures SimulationThroughput and fails when its
// events/s fall more than maxRegress below the committed baseline,
// through the shared bench.Compare gate. Events/s is machine-dependent
// like any wall-clock metric, so the gate is only as sound as the
// baseline's provenance: regenerate the baseline (bcp-bench -o) on the
// same runner class that enforces the gate, and widen -max-regress
// rather than deleting the gate when runner hardware is heterogeneous.
func compareThroughput(baselinePath string, maxRegress float64) error {
	if err := bench.ValidateMaxRegress(maxRegress); err != nil {
		return cli.Usage(err)
	}
	var baseline report
	if err := bench.LoadBaseline(baselinePath, &baseline); err != nil {
		return err
	}
	var want float64
	for _, b := range baseline.Benchmarks {
		if b.Name == "SimulationThroughput" {
			want = b.Extra["events/s"]
		}
	}
	if want <= 0 {
		return fmt.Errorf("%s has no SimulationThroughput events/s metric", baselinePath)
	}
	fmt.Fprintln(os.Stderr, "running SimulationThroughput...")
	r := testing.Benchmark(bench.SimulationThroughput)
	return bench.Compare(os.Stdout, []bench.Metric{{
		Name:           "SimulationThroughput events/s",
		Baseline:       want,
		Current:        r.Extra["events/s"],
		HigherIsBetter: true,
	}}, maxRegress)
}

// flagWasSet reports whether the named flag appeared on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseScalingNodes turns the -scaling-n value into node counts,
// defaulting to the canonical sweep when empty.
func parseScalingNodes(spec string) ([]int, error) {
	if spec == "" {
		return bench.ScalingNodes, nil
	}
	parts := strings.Split(spec, ",")
	nodes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, cli.Usage(fmt.Errorf("bad -scaling-n entry %q (want integers >= 2)", p))
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// writeScalingReport sweeps the scaling scenario and writes the curve
// as JSON to path.
func writeScalingReport(path, spec string) error {
	nodes, err := parseScalingNodes(spec)
	if err != nil {
		return err
	}
	points, err := bench.ScalingCurve(os.Stderr, nodes, bench.ScalingDuration)
	if err != nil {
		return err
	}
	rep := scalingReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		SimSecs:   bench.ScalingDuration.Seconds(),
		Points:    points,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %s (%d scaling points)\n", path, len(points))
	return nil
}

// compareScalingSweep measures the scaling sweep (restricted to the
// -scaling-n subset if given) and gates it against the committed
// baseline curve: exact event-count equality per N, events/s within
// maxRegress. The baseline's extra points are ignored, so CI can gate
// a reduced sweep against the full committed BENCH_PR6.json.
func compareScalingSweep(baselinePath, spec string, maxRegress float64) error {
	if err := bench.ValidateMaxRegress(maxRegress); err != nil {
		return cli.Usage(err)
	}
	nodes, err := parseScalingNodes(spec)
	if err != nil {
		return err
	}
	var baseline scalingReport
	if err := bench.LoadBaseline(baselinePath, &baseline); err != nil {
		return err
	}
	if baseline.SimSecs != bench.ScalingDuration.Seconds() {
		return fmt.Errorf("%s was captured at %gs simulated, current sweep uses %gs (regenerate the baseline)",
			baselinePath, baseline.SimSecs, bench.ScalingDuration.Seconds())
	}
	current, err := bench.ScalingCurve(os.Stderr, nodes, bench.ScalingDuration)
	if err != nil {
		return err
	}
	return bench.CompareScaling(os.Stdout, baseline.Points, current, maxRegress)
}
