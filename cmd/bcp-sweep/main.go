// Command bcp-sweep runs declarative grids of seeded simulations on
// the parallel sweep engine and exports the summarized results.
//
// Usage:
//
//	bcp-sweep -senders 5,15,25 -bursts 10,100,500            # table to stdout
//	bcp-sweep -models dual,sensor,802.11 -runs 5 -format csv
//	bcp-sweep -case multi-hop -duration 600s -format json -o mh.json
//	bcp-sweep -spec sweep.json -cache-dir ~/.cache/bulktx-sweep
//	bcp-sweep -cpuprofile cpu.pprof -memprofile mem.pprof
//
// A spec file (-spec) is a JSON document in the sweep.SpecDoc shape;
// flags for axes are ignored when -spec is given. The cache directory
// is purely a memoization of (config -> result): deleting it is always
// safe. Entries are keyed by the full run configuration plus a cache
// schema version that is bumped whenever simulator behavior changes,
// stranding pre-change entries rather than serving them stale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bulktx/internal/cli"
	"bulktx/internal/sweep"
	"bulktx/internal/telemetry"
)

func main() {
	cli.Exit("bcp-sweep", run())
}

func run() error {
	var (
		specFile = flag.String("spec", "", "JSON sweep spec file (overrides axis flags)")
		caseName = flag.String("case", "single-hop", "scenario template: single-hop|multi-hop")
		models   = flag.String("models", "dual", "comma-separated models: dual,sensor,802.11")
		senders  = flag.String("senders", "5,15,25,35", "comma-separated sender counts")
		bursts   = flag.String("bursts", "10,100,500,1000", "comma-separated burst thresholds (sensor packets)")
		traffics = flag.String("traffics", "cbr", "comma-separated traffic models: cbr,poisson,onoff")
		runs     = flag.Int("runs", 3, "seeded repetitions per grid point")
		seed     = flag.Int64("seed", 1, "base seed (repetitions use seed, seed+1, ...)")
		rate     = flag.Float64("rate", 0, "per-sender rate in bits/s (0 keeps the scenario default)")
		duration = flag.Duration("duration", 600*time.Second, "simulated time per run")
		workers  = flag.Int("workers", 0, "worker pool size (0 = all cores)")
		cacheDir = flag.String("cache-dir", "", "on-disk result cache directory (empty = in-memory only)")
		format   = flag.String("format", "table", "output format: table|json|csv")
		outFile  = flag.String("o", "", "output file (empty = stdout)")
		progress = flag.Bool("progress", true, "report per-job progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the sweep to this file")
		tel      = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if tel.HandleVersion(os.Stdout, "bcp-sweep") {
		return nil
	}

	switch *format {
	case "table", "json", "csv":
	default:
		return cli.Usagef("unknown format %q (want table, json or csv)", *format)
	}

	var spec sweep.Spec
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec, err = sweep.ParseSpecJSON(data)
		if err != nil {
			return err
		}
	} else {
		doc := sweep.SpecDoc{
			Case:      *caseName,
			Models:    splitList(*models),
			Traffics:  splitList(*traffics),
			Runs:      *runs,
			Seed:      *seed,
			RateBps:   *rate,
			DurationS: duration.Seconds(),
		}
		var err error
		if doc.Senders, err = parseInts(*senders); err != nil {
			return cli.Usagef("-senders: %v", err)
		}
		if doc.Bursts, err = parseInts(*bursts); err != nil {
			return cli.Usagef("-bursts: %v", err)
		}
		if spec, err = doc.Spec(); err != nil {
			// The doc was assembled from flag values, so spec failures
			// ("unknown model") are usage problems.
			return cli.Usage(err)
		}
	}

	pool := &sweep.Pool{Workers: *workers, Cache: sweep.NewCache()}
	if *cacheDir != "" {
		cache, err := sweep.NewDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		pool.Cache = cache
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	var onJob func(sweep.JobUpdate)
	if *progress {
		onJob = func(u sweep.JobUpdate) {
			fmt.Fprintf(os.Stderr, "\rbcp-sweep: %d/%d runs", u.Done, u.Total)
			if u.Done == u.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	stopCPU := func() error { return nil }
	if *cpuProf != "" {
		var err error
		if stopCPU, err = telemetry.StartCPUProfile(*cpuProf); err != nil {
			return err
		}
	}

	start := time.Now()
	out, err := pool.RunJobsProgress(jobs, onJob)
	if stopErr := stopCPU(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	if *memProf != "" {
		if err := telemetry.WriteHeapProfile(*memProf); err != nil {
			return err
		}
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "bcp-sweep: %d jobs (%d cached) in %v\n",
			len(out.Jobs), out.Cached, time.Since(start).Round(time.Millisecond))
	}

	w := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "table":
		_, err = fmt.Fprint(w, out.Table("sweep: goodput", sweep.MetricGoodput).Render())
		if err == nil {
			_, err = fmt.Fprint(w, out.Table("sweep: normalized energy", sweep.MetricNormEnergy).Render())
		}
		return err
	case "json":
		return sweep.WriteJSON(w, out)
	default:
		return sweep.WriteCSV(w, out)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
