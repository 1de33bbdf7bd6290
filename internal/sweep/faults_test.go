package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"bulktx/internal/faultinject"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
)

// cellJobs compiles a small distinct-config job list (one job per
// sender count).
func cellJobs(t *testing.T, senders ...int) []Job {
	t.Helper()
	base := netsim.DefaultConfig(netsim.ModelSensor, 5, 1, 7)
	base.Rate = params.HighRate
	base.Duration = 30 * time.Second
	jobs, err := Spec{Base: base, Senders: senders, BaseSeed: 7}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestPersistentPanicQuarantinesCell(t *testing.T) {
	plan, err := faultinject.Parse("cell.panic")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	jobs := cellJobs(t, 5, 6)
	pool := &Pool{Workers: 1, Cache: NewCache()}
	var updates []JobUpdate
	out, err := pool.RunJobsProgressContext(context.Background(), jobs, func(u JobUpdate) {
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatalf("partial run returned a run-level error: %v", err)
	}
	if len(out.Errors) != len(jobs) {
		t.Fatalf("quarantined %d of %d cells", len(out.Errors), len(jobs))
	}
	for i, ce := range out.Errors {
		if ce.Index != i {
			t.Errorf("cell error %d = %+v, want index %d", i, ce, i)
		}
		var pe *PanicError
		if !errors.As(ce.Err, &pe) {
			t.Errorf("cell error %d is %T, want *PanicError", i, ce.Err)
		} else if len(pe.Stack) == 0 {
			t.Errorf("cell error %d carries no stack", i)
		}
	}
	if len(updates) != len(jobs) {
		t.Fatalf("got %d updates, want %d (quarantined cells still count)", len(updates), len(jobs))
	}
	for _, u := range updates {
		if u.Err == nil || u.Done == 0 {
			t.Errorf("quarantine update %+v lacks error or progress", u)
		}
	}
	// Quarantined cells disappear from summaries instead of polluting
	// them with zero results.
	if cells := out.Cells(); len(cells) != 0 {
		t.Errorf("fully failed sweep still summarizes %d cells", len(cells))
	}
}

func TestPartialSweepSummarizesSurvivors(t *testing.T) {
	// With one worker and a fire-count of 1, exactly the first job
	// panics and quarantines; the remaining jobs run clean.
	plan, err := faultinject.Parse("cell.panic:count=1")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	jobs := cellJobs(t, 5, 6, 7)
	pool := &Pool{Workers: 1, Cache: NewCache()}
	out, err := pool.RunJobsProgressContext(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Errors) != 1 || out.Errors[0].Index != 0 {
		t.Fatalf("errors = %+v, want exactly job 0 quarantined", out.Errors)
	}
	cells := out.Cells()
	if len(cells) != 2 {
		t.Fatalf("summarized %d cells, want the 2 survivors", len(cells))
	}
	for _, c := range cells {
		if c.Point.Senders == 5 {
			t.Error("quarantined point still summarized")
		}
	}
}

// TestGridReturnsPanicAsError: Grid, which has no partial outcome to
// carry a quarantined cell, returns the cell's failure as its error.
func TestGridReturnsPanicAsError(t *testing.T) {
	plan, err := faultinject.Parse("cell.panic")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	pool := &Pool{Workers: 2, Cache: NewCache()}
	groups, err := pool.Grid([]netsim.Config{cellJobs(t, 5)[0].Config}, 2, 7)
	if err == nil {
		t.Fatalf("Grid swallowed a panicking cell: %d groups", len(groups))
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Grid error %v (%T) does not unwrap to *PanicError", err, err)
	}
}

func TestCancellationStopsBetweenCells(t *testing.T) {
	plan, err := faultinject.Parse("cell.stall:delay=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	ctx, cancel := context.WithCancel(context.Background())
	pool := &Pool{Workers: 1, Cache: NewCache()}
	done := make(chan error, 1)
	go func() {
		_, err := pool.RunJobsProgressContext(ctx, cellJobs(t, 5, 6, 7), nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unwind the stalled run")
	}
}

func TestDeadlinePropagatesCause(t *testing.T) {
	plan, err := faultinject.Parse("cell.stall:delay=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	pool := &Pool{Workers: 1, Cache: NewCache()}
	_, err = pool.RunJobsProgressContext(ctx, cellJobs(t, 5), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run returned %v, want context.DeadlineExceeded", err)
	}
}

func TestCacheWriteFailureKeepsResult(t *testing.T) {
	plan, err := faultinject.Parse("cache.put")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	cache, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hookErrs []error
	pool := &Pool{Workers: 1, Cache: cache, OnCacheError: func(key string, err error) {
		hookErrs = append(hookErrs, err)
	}}
	jobs := cellJobs(t, 5)
	out, err := pool.RunJobsProgressContext(context.Background(), jobs, nil)
	if err != nil {
		t.Fatalf("cache write failure escalated to run failure: %v", err)
	}
	if len(out.Errors) != 0 {
		t.Fatalf("cache write failure quarantined the cell: %v", out.Errors)
	}
	if out.Results[0].Events == 0 {
		t.Error("result lost on cache write failure")
	}
	if len(hookErrs) != 1 {
		t.Fatalf("OnCacheError called %d times, want 1", len(hookErrs))
	}
	// The mem tier kept the entry: a warm re-run is served cached.
	out2, err := pool.RunJobsProgressContext(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cached != 1 {
		t.Errorf("warm re-run cached %d, want 1 (mem-only fallback)", out2.Cached)
	}
}
