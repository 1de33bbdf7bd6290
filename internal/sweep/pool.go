package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bulktx/internal/faultinject"
	"bulktx/internal/netsim"
)

// Pool executes sweep jobs on a fixed-size worker pool. The zero value
// is usable: runtime.NumCPU workers, no cache, no progress reporting,
// no retries. A Pool is safe for concurrent use: it holds only
// settings, and one Run call's jobs never interleave state with
// another's (netsim runs share nothing). Duplicate configurations
// within one Run call are simulated once; across calls the Cache is
// the only dedupe, so concurrent calls that miss it on the same
// configuration each simulate it and Put identical bytes.
//
// Cell execution is panic-isolated: a panicking simulation is
// recovered into a *PanicError on that cell instead of crashing the
// process, and — when Retry enables it — retried with capped
// exponential backoff before the cell is quarantined.
type Pool struct {
	// Workers is the concurrency limit; values < 1 select
	// runtime.NumCPU().
	Workers int

	// Cache, when non-nil, memoizes results by content key across Run
	// calls (and across processes for disk-backed caches).
	Cache *Cache

	// Retry governs per-cell retry of failed or panicked simulations;
	// the zero value runs each cell once.
	Retry RetryPolicy

	// Progress, when non-nil, is called after each job resolves with
	// the number of jobs done so far and the total. Calls are
	// serialized but may come from any worker goroutine.
	Progress func(done, total int)

	// OnCacheError, when non-nil, observes result-cache write failures
	// (disk full, permissions, ...). Cache writes are not load-bearing:
	// the result is already in memory and the cell succeeds regardless,
	// so the hook exists for logging and counting, never for control
	// flow. Calls may come from any worker goroutine.
	OnCacheError func(key string, err error)
}

// JobUpdate describes one resolved job of a Run call, as delivered to
// the per-job progress hook (RunJobsProgress).
type JobUpdate struct {
	// Index is the job's position in the Run call's job list.
	Index int
	// Point and Rep identify the job within its sweep grid.
	Point Point
	// Rep is the seeded repetition index within the point.
	Rep int
	// Cached reports that the job resolved without simulating: a cache
	// hit or an intra-batch duplicate.
	Cached bool
	// Attempts is how many times the cell was executed (1 for a
	// first-try success, more after retries; 0 for cached jobs).
	Attempts int
	// Err is the cell's final error when it was quarantined after
	// exhausting its attempts; nil for successful and cached jobs.
	// Quarantined cells still count toward Done.
	Err error
	// Duration is the wall-clock time the simulation took on its
	// worker; zero for cached jobs, which never simulate. It feeds the
	// per-cell latency histograms of telemetry consumers (the HTTP
	// service's bulktx_cell_simulation_seconds).
	Duration time.Duration
	// Done and Total are the Run call's resolved-job counter after this
	// job and its total job count.
	Done, Total int
}

func (p *Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

// isCtxErr distinguishes cancellation/deadline unwinding from genuine
// cell failures: the former ends the whole run, the latter quarantines
// one cell.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// attemptKey names one execution attempt of a cell for fault-injection
// decisions, so probabilistic plans can flake per attempt while
// staying deterministic.
func attemptKey(key string, attempt int) string {
	return fmt.Sprintf("%s#%d", key, attempt)
}

// runCell executes one simulation attempt, converting panics —
// injected or genuine — into *PanicError so a corrupt cell cannot take
// down the worker pool.
func runCell(cfg netsim.Config, faultKey string) (res netsim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	faultinject.MaybePanic(faultinject.CellPanic, faultKey)
	return netsim.Run(cfg)
}

// Run executes the jobs and returns one result per job, in job order
// regardless of scheduling: result i is always job i's, so a parallel
// pool is byte-identical to serial execution. Jobs with identical
// configurations (same content key) are simulated once and fanned out.
// On failure Run reports the lowest-indexed error among the jobs that
// ran (remaining jobs are abandoned, so which jobs ran — and hence
// which error surfaces — can vary with scheduling).
func (p *Pool) Run(jobs []Job) ([]netsim.Result, error) {
	results, _, _, err := p.run(context.Background(), jobs, nil, false)
	return results, err
}

// run executes jobs with per-job progress reporting. In wholesale mode
// (partial false, the Run/Grid/Reps path) the first final cell error
// aborts the batch and is returned. In partial mode (partial true, the
// RunJobsProgressContext path) every cell is attempted; quarantined
// cells are returned as CellErrors — sorted by index — alongside the
// results, and the only run-level errors are key-encoding failures and
// ctx cancellation. The int result counts jobs resolved without
// simulating (see Outcome.Cached).
func (p *Pool) run(ctx context.Context, jobs []Job, onJob func(JobUpdate), partial bool) ([]netsim.Result, int, []CellError, error) {
	total := len(jobs)
	results := make([]netsim.Result, total)
	if total == 0 {
		return results, 0, nil, nil
	}

	// Resolve duplicates and cache hits up front. primary maps a
	// content key to the first job index carrying it; later indices
	// with the same key become aliases filled in after execution.
	// cached counts every job resolved without simulating — cache
	// hits and intra-batch aliases — matching the Cached flag of the
	// JobUpdates.
	keys := make([]string, total)
	primary := make(map[string]int, total)
	var execIdx []int // indices to actually simulate
	var done, cached int
	var progressMu sync.Mutex
	notify := func(i int, fromCache bool, attempts int, cellErr error, dur time.Duration) {
		progressMu.Lock()
		done++
		if fromCache {
			cached++
		}
		if p.Progress != nil {
			p.Progress(done, total)
		}
		if onJob != nil {
			onJob(JobUpdate{
				Index: i, Point: jobs[i].Point, Rep: jobs[i].Rep,
				Cached: fromCache, Attempts: attempts, Err: cellErr,
				Duration: dur, Done: done, Total: total,
			})
		}
		progressMu.Unlock()
	}
	for i, job := range jobs {
		key, err := Key(job.Config)
		if err != nil {
			return nil, 0, nil, err
		}
		keys[i] = key
		if _, dup := primary[key]; dup {
			continue
		}
		primary[key] = i
		if res, ok := p.Cache.Get(key); ok {
			results[i] = res
			notify(i, true, 0, nil, 0)
			continue
		}
		execIdx = append(execIdx, i)
	}

	// Execute the unique misses on the worker pool. failed short-
	// circuits remaining work in wholesale mode only; cellErrs
	// accumulates quarantined cells in partial mode.
	var (
		failed   atomic.Bool
		errMu    sync.Mutex
		errIdx   = -1
		firstEr  error
		cellErrs []CellError
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		failed.Store(true)
		errMu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstEr = i, err
		}
		errMu.Unlock()
	}
	// quarantine records one cell's final error: a batch abort in
	// wholesale mode, a per-cell error entry in partial mode. Ctx
	// unwinding is not a cell failure — the run-level return handles it.
	quarantine := func(i, attempts int, err error) {
		if isCtxErr(err) {
			return
		}
		if !partial {
			fail(i, err)
			return
		}
		errMu.Lock()
		cellErrs = append(cellErrs, CellError{
			Index: i, Point: jobs[i].Point, Rep: jobs[i].Rep,
			Attempts: attempts, Err: err,
		})
		errMu.Unlock()
		notify(i, false, attempts, err, 0)
	}
	execute := func(i int) {
		attempts := p.Retry.attempts()
		var (
			res    netsim.Result
			err    error
			simDur time.Duration
			att    int
		)
		for att = 1; att <= attempts; att++ {
			if err = ctx.Err(); err != nil {
				break
			}
			faultinject.Stall(ctx, faultinject.CellStall, attemptKey(keys[i], att))
			if err = ctx.Err(); err != nil {
				break
			}
			simStart := time.Now()
			res, err = runCell(jobs[i].Config, attemptKey(keys[i], att))
			simDur = time.Since(simStart)
			if err == nil {
				break
			}
			if att < attempts && !sleepCtx(ctx, p.Retry.backoff(keys[i], att)) {
				err = ctx.Err()
				break
			}
		}
		if att > attempts {
			att = attempts
		}
		if err != nil {
			quarantine(i, att, err)
			return
		}
		// A failed cache write is not a failed cell: the result is
		// already held in memory, so degrade to mem-only and let the
		// hook log/count the disk problem.
		if cerr := p.Cache.Put(keys[i], res); cerr != nil && p.OnCacheError != nil {
			p.OnCacheError(keys[i], cerr)
		}
		results[i] = res
		notify(i, false, att, nil, simDur)
	}
	work := make(chan int)
	workers := p.workers()
	if workers > len(execIdx) {
		workers = len(execIdx)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed.Load() || ctx.Err() != nil {
					continue
				}
				execute(i)
			}
		}()
	}
	for _, i := range execIdx {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		}
		return nil, 0, nil, err
	}
	if firstEr != nil {
		return nil, 0, nil, fmt.Errorf("sweep: job %d (%v rep %d): %w",
			errIdx, jobs[errIdx].Point, jobs[errIdx].Rep, firstEr)
	}

	// Fan primaries out to their aliases — results and quarantines
	// alike, so every alias of a failed primary carries the error too.
	failedAt := make(map[int]CellError, len(cellErrs))
	for _, ce := range cellErrs {
		failedAt[ce.Index] = ce
	}
	for i := range jobs {
		pi := primary[keys[i]]
		if pi == i {
			continue
		}
		if ce, bad := failedAt[pi]; bad {
			errMu.Lock()
			cellErrs = append(cellErrs, CellError{
				Index: i, Point: jobs[i].Point, Rep: jobs[i].Rep,
				Attempts: ce.Attempts, Err: ce.Err,
			})
			errMu.Unlock()
			notify(i, false, ce.Attempts, ce.Err, 0)
			continue
		}
		results[i] = results[pi]
		notify(i, true, 0, nil, 0)
	}
	sort.Slice(cellErrs, func(a, b int) bool { return cellErrs[a].Index < cellErrs[b].Index })
	return results, cached, cellErrs, nil
}

// RunSpec compiles the spec and executes it, returning the grouped
// outcome.
func (p *Pool) RunSpec(spec Spec) (*Outcome, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	return p.RunJobs(jobs)
}

// RunJobs executes an explicit job list (e.g. several specs' jobs
// concatenated into one batch) and returns the grouped outcome.
func (p *Pool) RunJobs(jobs []Job) (*Outcome, error) {
	return p.RunJobsProgress(jobs, nil)
}

// RunJobsProgress is RunJobsProgressContext without cancellation.
func (p *Pool) RunJobsProgress(jobs []Job, onJob func(JobUpdate)) (*Outcome, error) {
	return p.RunJobsProgressContext(context.Background(), jobs, onJob)
}

// RunJobsProgressContext executes an explicit job list, delivering one
// JobUpdate per resolved job to onJob (when non-nil). Calls are
// serialized but may come from any worker goroutine; Done strictly
// increments from 1 to len(jobs). This is the progress feed behind
// streaming consumers such as the HTTP service's per-cell SSE events.
//
// Execution is partial-failure tolerant: a cell that still fails after
// its retry budget is quarantined — recorded on Outcome.Errors and
// reported through its JobUpdate — while the rest of the sweep
// completes. The returned error is non-nil only for spec-level
// problems (unencodable configs) or when ctx ends, in which case it is
// ctx's cause; cancellation takes effect between cell executions (a
// cell already simulating finishes first).
func (p *Pool) RunJobsProgressContext(ctx context.Context, jobs []Job, onJob func(JobUpdate)) (*Outcome, error) {
	results, cached, cellErrs, err := p.run(ctx, jobs, onJob, true)
	if err != nil {
		return nil, err
	}
	return &Outcome{Jobs: jobs, Results: results, Cached: cached, Errors: cellErrs}, nil
}

// Grid runs every configuration with runs seeded repetitions (seeds
// baseSeed..baseSeed+runs-1, common across configs) and returns the
// per-configuration result groups, in input order. It is the batched,
// cached, parallel replacement for calling netsim.RunMany per cell.
func (p *Pool) Grid(cfgs []netsim.Config, runs int, baseSeed int64) ([][]netsim.Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("sweep: runs %d < 1", runs)
	}
	jobs := make([]Job, 0, len(cfgs)*runs)
	for _, cfg := range cfgs {
		for r := 0; r < runs; r++ {
			c := cfg
			c.Seed = baseSeed + int64(r)
			jobs = append(jobs, Job{
				Point: Point{
					Model:   c.Model,
					Senders: c.Senders,
					Burst:   c.BurstPackets,
					Traffic: c.Traffic,
				},
				Rep:    r,
				Config: c,
			})
		}
	}
	flat, err := p.Run(jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]netsim.Result, len(cfgs))
	for i := range cfgs {
		out[i] = flat[i*runs : (i+1)*runs : (i+1)*runs]
	}
	return out, nil
}

// Reps runs one configuration with runs seeded repetitions — the
// pooled, cached equivalent of netsim.RunMany.
func (p *Pool) Reps(cfg netsim.Config, runs int, baseSeed int64) ([]netsim.Result, error) {
	groups, err := p.Grid([]netsim.Config{cfg}, runs, baseSeed)
	if err != nil {
		return nil, err
	}
	return groups[0], nil
}
