// Command bcp-loadgen drives a live bcp-serve with a seed-deterministic
// mix of client behaviors — single runs, overlapping sweep grids (job
// dedupe and the result cache), late and rude SSE subscribers,
// mid-sweep cancellations, and a 429 storm against the bounded queue
// that honors the advertised Retry-After — and writes the outcome as
// BENCH_SERVE.json: request, dedupe, SSE-replay, cancel and 429
// counters, plus the storm's observed Retry-After hints.
//
// Usage:
//
//	bcp-serve -queue 4 -job-workers 2 -workers 2 &
//	bcp-loadgen -base http://127.0.0.1:8080 -seed 1 -o BENCH_SERVE.json
//	bcp-loadgen -base http://127.0.0.1:8080 -seed 1 -compare BENCH_SERVE.json
//
// The schedule is a pure function of (-seed, -profile): two
// invocations with the same seed issue the identical request sequence
// (print it with -print-schedule), and the report's deterministic
// counters — requests, dedupe hits, 429 rejections — match across
// runs even against the same still-running server. -compare gates a
// fresh run against a committed baseline on behavior only: the run
// must be clean and the seed, schedule hash and counters must match
// exactly. Service throughput and latency are measured elsewhere (the
// perfbench serve-mixed workload and bcp-serve's
// bulktx_http_request_duration_seconds histogram).
//
// The storm phase requires the target server's -queue and -job-workers
// to match the profile (override with -queue/-job-workers here); see
// docs/OPERATIONS.md for capacity-planning guidance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulktx/internal/bench"
	"bulktx/internal/cli"
	"bulktx/internal/loadgen"
	"bulktx/internal/telemetry"
)

func main() {
	cli.Exit("bcp-loadgen", run(os.Args[1:]))
}

// run parses the command line and executes one loadgen invocation.
func run(args []string) error {
	fs := flag.NewFlagSet("bcp-loadgen", flag.ContinueOnError)
	base := fs.String("base", "http://127.0.0.1:8080", "target bcp-serve base URL")
	seed := fs.Int64("seed", 1, "schedule seed; equal seeds issue identical request sequences")
	profileName := fs.String("profile", "short", "load profile: short|soak")
	queue := fs.Int("queue", 0, "override the profile's queue_limit (must match the server's -queue)")
	jobWorkers := fs.Int("job-workers", 0, "override the profile's job_workers (must match the server's -job-workers)")
	out := fs.String("o", "BENCH_SERVE.json", "output JSON path")
	compare := fs.String("compare", "", "baseline JSON: gate this run against it instead of writing a report")
	waitTimeout := fs.Duration("wait-timeout", 2*time.Minute, "per-SSE-wait timeout (a hit means the server shape mismatches the profile)")
	printSchedule := fs.Bool("print-schedule", false, "print the materialized op schedule as JSON and exit without sending requests")
	tel := telemetry.RegisterFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if tel.HandleVersion(os.Stdout, "bcp-loadgen") {
		return nil
	}

	profile, err := loadgen.ProfileByName(*profileName)
	if err != nil {
		return cli.Usage(err)
	}
	if *queue > 0 {
		profile.QueueLimit = *queue
	}
	if *jobWorkers > 0 {
		profile.JobWorkers = *jobWorkers
	}
	if err := profile.Validate(); err != nil {
		return cli.Usage(err)
	}

	// Load the baseline before the (slow) run so a missing or stale
	// file fails in milliseconds, not minutes.
	var baseline *loadgen.Report
	if *compare != "" {
		baseline = &loadgen.Report{}
		if err := bench.LoadBaseline(*compare, baseline); err != nil {
			return err
		}
	}

	if *printSchedule {
		ops, err := loadgen.BuildSchedule(*seed, profile)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ops); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d ops, schedule sha256 %s\n", len(ops), loadgen.ScheduleSHA256(ops))
		return nil
	}

	log, err := tel.Logger(os.Stderr)
	if err != nil {
		return cli.Usage(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	rep, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:     *base,
		Seed:        *seed,
		Profile:     profile,
		Log:         log,
		WaitTimeout: *waitTimeout,
	})
	if err != nil {
		return err
	}
	log.Info("run complete",
		"wall_clock_s", fmt.Sprintf("%.1f", time.Since(start).Seconds()),
		"requests", rep.Counters.Requests,
		"dedupe_hits", rep.Counters.DedupeHits,
		"rejected_429", rep.Counters.Rejected429,
		"unexpected_errors", rep.Counters.UnexpectedErrors)

	if baseline != nil {
		if err := loadgen.CompareReports(os.Stdout, baseline, rep); err != nil {
			return err
		}
		fmt.Println("loadgen behavior gate passed")
		return nil
	}

	if err := rep.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d requests, %d ops)\n", *out, rep.Counters.Requests, rep.ScheduleOps)
	return nil
}
