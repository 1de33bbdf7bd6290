package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"bulktx/internal/faultinject"
	"bulktx/internal/netsim"
)

// Pool executes sweep jobs on a fixed-size worker budget. The zero
// value is usable: runtime.NumCPU workers, no cache. A Pool is safe
// for concurrent use: it holds its settings plus the slot budget, and
// one call's jobs never interleave state with another's (netsim
// runs share nothing).
// Duplicate configurations within one call are simulated once;
// across calls the Cache is the only dedupe, so concurrent calls that
// miss it on the same configuration each simulate it and Put identical
// bytes.
//
// Workers is a budget for the whole pool, not for each call: every
// simulation of every concurrent Run* call holds one of Workers slots
// while it runs, so k concurrent sweeps together never simulate more
// than Workers cells at once. A call holds no slot while it stalls
// under fault injection, and it stops waiting for a slot as soon as
// its context ends. Workers must not change once the Pool is first
// used.
//
// Cell execution is panic-isolated: a panicking simulation is
// recovered into a *PanicError on that cell instead of crashing the
// process, and the cell is quarantined.
type Pool struct {
	// Workers is the pool-wide limit on concurrent simulations; values
	// < 1 select runtime.NumCPU().
	Workers int

	// Cache, when non-nil, memoizes results by content key across Run
	// calls (and across processes for disk-backed caches).
	Cache *Cache

	// OnCacheError, when non-nil, observes result-cache write failures
	// (disk full, permissions, ...). Cache writes are not load-bearing:
	// the result is already in memory and the cell succeeds regardless,
	// so the hook exists for logging and counting, never for control
	// flow. Calls may come from any worker goroutine.
	OnCacheError func(key string, err error)

	// slots holds one token per running simulation; it is made
	// with Workers capacity on first use.
	slotsOnce sync.Once
	slots     chan struct{}

	// simulate replaces netsim.Run when non-nil, so tests can observe
	// simulations while they hold a slot.
	simulate func(netsim.Config) (netsim.Result, error)
}

// JobUpdate describes one resolved job of a Run* call, as delivered to
// the per-job progress hook (RunJobsProgress).
type JobUpdate struct {
	// Index is the job's position in the call's job list.
	Index int
	// Point and Rep identify the job within its sweep grid.
	Point Point
	// Rep is the seeded repetition index within the point.
	Rep int
	// Cached reports that the job resolved without simulating: a cache
	// hit or an intra-batch duplicate.
	Cached bool
	// Err is the cell's error when it was quarantined; nil for
	// successful and cached jobs. Quarantined cells still count toward
	// Done.
	Err error
	// Duration is the wall-clock time the simulation took on its
	// worker; zero for cached jobs, which never simulate. It feeds the
	// per-cell latency histograms of telemetry consumers (the HTTP
	// service's bulktx_cell_simulation_seconds).
	Duration time.Duration
	// Done and Total are the call's resolved-job counter after this
	// job and its total job count.
	Done, Total int
}

// PanicError is a recovered panic from a cell simulation, converted to
// an ordinary error so one corrupt configuration cannot crash the
// worker pool (or the process hosting it).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic value; the stack stays available on the
// struct for logs that want it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("cell panicked: %v", e.Value)
}

// CellError records one quarantined cell of a partially failed sweep:
// the job that could not be simulated, and why. A sweep completes with
// CellErrors on its Outcome instead of failing wholesale.
type CellError struct {
	// Index is the failed job's position in the job list.
	Index int
	// Point and Rep identify the cell within the sweep grid.
	Point Point
	// Rep is the seeded repetition index within the point.
	Rep int
	// Err is the cell's error (a *PanicError when the cell panicked).
	Err error
}

// Error summarizes the quarantined cell.
func (e CellError) Error() string {
	return fmt.Sprintf("cell %d (%v rep %d) failed: %v", e.Index, e.Point, e.Rep, e.Err)
}

// Unwrap exposes the underlying cell failure to errors.Is/As.
func (e CellError) Unwrap() error { return e.Err }

func (p *Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

// acquire takes a simulation slot from the pool-wide budget, giving up
// with ctx's error once ctx ends.
func (p *Pool) acquire(ctx context.Context) error {
	p.slotsOnce.Do(func() { p.slots = make(chan struct{}, p.workers()) })
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (p *Pool) release() { <-p.slots }

// runCell executes one simulation, converting panics — injected or
// genuine — into *PanicError so a corrupt cell cannot take down the
// worker pool.
func (p *Pool) runCell(cfg netsim.Config, key string) (res netsim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	faultinject.MaybePanic(faultinject.CellPanic, key)
	if p.simulate != nil {
		return p.simulate(cfg)
	}
	return netsim.Run(cfg)
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

// RunJobsProgressContext executes an explicit job list and returns one
// result per job, in job order regardless of scheduling: result i is
// always job i's, so a parallel pool is byte-identical to serial
// execution. Jobs with identical configurations (same content key) are
// simulated once and fanned out. One JobUpdate per resolved job goes
// to onJob (when non-nil); calls are serialized but may come from any
// worker goroutine, and Done strictly increments from 1 to len(jobs).
// This is the progress feed behind streaming consumers such as the
// HTTP service's per-cell SSE events.
//
// Each cell runs once. A cell that fails — a simulation is a pure
// function of its config, so it would fail the same way again — is
// quarantined: recorded on Outcome.Errors (sorted by index) and
// reported through its JobUpdate, while the rest of the sweep
// completes. The returned error is non-nil only for spec-level
// problems (unencodable configs) or when ctx ends, in which case it is
// ctx's cause; cancellation takes effect between cell executions (a
// cell already simulating finishes first, a cell waiting for a slot
// stops waiting at once).
func (p *Pool) RunJobsProgressContext(ctx context.Context, jobs []Job, onJob func(JobUpdate)) (*Outcome, error) {
	total := len(jobs)
	results := make([]netsim.Result, total)
	if total == 0 {
		return &Outcome{Jobs: jobs, Results: results}, nil
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
	notify := func(i int, fromCache bool, cellErr error, dur time.Duration) {
		progressMu.Lock()
		done++
		if fromCache {
			cached++
		}
		if onJob != nil {
			onJob(JobUpdate{
				Index: i, Point: jobs[i].Point, Rep: jobs[i].Rep,
				Cached: fromCache, Err: cellErr,
				Duration: dur, Done: done, Total: total,
			})
		}
		progressMu.Unlock()
	}
	for i, job := range jobs {
		key, err := Key(job.Config)
		if err != nil {
			return nil, err
		}
		keys[i] = key
		if _, dup := primary[key]; dup {
			continue
		}
		primary[key] = i
		if res, ok := p.Cache.Get(key); ok {
			results[i] = res
			notify(i, true, nil, 0)
			continue
		}
		execIdx = append(execIdx, i)
	}

	// Execute the unique misses on the worker pool; cellErrs collects
	// the quarantined ones.
	var (
		errMu    sync.Mutex
		cellErrs []CellError
		wg       sync.WaitGroup
	)
	quarantine := func(i int, err error) {
		errMu.Lock()
		cellErrs = append(cellErrs, CellError{Index: i, Point: jobs[i].Point, Rep: jobs[i].Rep, Err: err})
		errMu.Unlock()
		notify(i, false, err, 0)
	}
	execute := func(i int) {
		faultinject.Stall(ctx, faultinject.CellStall, keys[i])
		// An ended ctx is not a cell failure: the run-level return
		// below reports it.
		if ctx.Err() != nil || p.acquire(ctx) != nil {
			return
		}
		simStart := time.Now()
		res, err := p.runCell(jobs[i].Config, keys[i])
		simDur := time.Since(simStart)
		p.release()
		if err != nil {
			quarantine(i, err)
			return
		}
		// A failed cache write is not a failed cell: the result is
		// already held in memory, so degrade to mem-only and let the
		// hook log/count the disk problem.
		if cerr := p.Cache.Put(keys[i], res); cerr != nil && p.OnCacheError != nil {
			p.OnCacheError(keys[i], cerr)
		}
		results[i] = res
		notify(i, false, nil, simDur)
	}
	work := make(chan int)
	workers := min(p.workers(), len(execIdx))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() == nil {
					execute(i)
				}
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
		return nil, err
	}

	// Fan primaries out to their aliases — results and quarantines
	// alike, so every alias of a failed primary carries the error too.
	failedAt := make(map[int]error, len(cellErrs))
	for _, ce := range cellErrs {
		failedAt[ce.Index] = ce.Err
	}
	for i := range jobs {
		pi := primary[keys[i]]
		if pi == i {
			continue
		}
		if err, bad := failedAt[pi]; bad {
			quarantine(i, err)
			continue
		}
		results[i] = results[pi]
		notify(i, true, nil, 0)
	}
	sort.Slice(cellErrs, func(a, b int) bool { return cellErrs[a].Index < cellErrs[b].Index })
	return &Outcome{Jobs: jobs, Results: results, Cached: cached, Errors: cellErrs}, nil
}

// Grid runs every configuration with runs seeded repetitions (seeds
// baseSeed..baseSeed+runs-1, common across configs) and returns the
// per-configuration result groups, in input order: the batched, cached
// form of netsim.RunScenarioMany over each configuration. Every cell
// runs; if any failed, the lowest-indexed CellError is the error.
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
	outcome, err := p.RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	if len(outcome.Errors) > 0 {
		return nil, outcome.Errors[0]
	}
	out := make([][]netsim.Result, len(cfgs))
	for i := range cfgs {
		out[i] = outcome.Results[i*runs : (i+1)*runs : (i+1)*runs]
	}
	return out, nil
}
