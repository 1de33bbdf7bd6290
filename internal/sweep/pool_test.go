package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulktx/internal/faultinject"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
)

// smallJob compiles one fast single-run job list for the pool tests.
func smallJob(t *testing.T, seed int64) []Job {
	t.Helper()
	base := netsim.DefaultConfig(netsim.ModelSensor, 5, 1, seed)
	base.Rate = params.HighRate
	base.Duration = 30 * time.Second
	jobs, err := Spec{Base: base, BaseSeed: seed}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestRunJobsProgressReportsEveryJob(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	pool := &Pool{Workers: 4, Cache: NewCache()}
	var updates []JobUpdate
	out, err := pool.RunJobsProgress(jobs, func(u JobUpdate) {
		updates = append(updates, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != len(jobs) {
		t.Fatalf("updates = %d, want %d", len(updates), len(jobs))
	}
	seen := make(map[int]bool)
	for i, u := range updates {
		if u.Done != i+1 || u.Total != len(jobs) {
			t.Errorf("update %d: done/total = %d/%d", i, u.Done, u.Total)
		}
		if u.Index < 0 || u.Index >= len(jobs) || seen[u.Index] {
			t.Errorf("update %d: bad or repeated index %d", i, u.Index)
		}
		seen[u.Index] = true
		if u.Point != jobs[u.Index].Point || u.Rep != jobs[u.Index].Rep {
			t.Errorf("update %d: point/rep do not match job %d", i, u.Index)
		}
		if u.Cached {
			t.Errorf("update %d: cold-cache job %d reported cached", i, u.Index)
		}
		if u.Duration <= 0 {
			t.Errorf("update %d: simulated job %d has no duration", i, u.Index)
		}
	}
	if out.Cached != 0 {
		t.Errorf("cold run reported %d cached jobs", out.Cached)
	}

	// A warm re-run resolves every job from the cache, flagged as such.
	var warm []JobUpdate
	out2, err := pool.RunJobsProgress(jobs, func(u JobUpdate) { warm = append(warm, u) })
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cached != len(jobs) {
		t.Fatalf("warm run cached = %d, want %d", out2.Cached, len(jobs))
	}
	for _, u := range warm {
		if !u.Cached {
			t.Errorf("warm update for job %d not flagged cached", u.Index)
		}
		if u.Duration != 0 {
			t.Errorf("cached update for job %d carries duration %v", u.Index, u.Duration)
		}
	}
}

func TestConcurrentRunsShareOnePool(t *testing.T) {
	// A stress companion to the deterministic dedupe tests: many
	// concurrent RunJobs calls over one pool and one configuration must
	// all succeed and agree (exercised under -race in CI).
	jobs := smallJob(t, 44)
	pool := &Pool{Workers: 2, Cache: NewCache()}
	const callers = 6
	results := make([][]netsim.Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := pool.RunJobs(jobs)
			if err != nil {
				t.Error(err)
				return
			}
			if len(out.Errors) != 0 {
				t.Error(out.Errors[0])
				return
			}
			results[c] = out.Results
		}()
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		if results[c] == nil || results[0] == nil {
			continue // already reported
		}
		if !resultsEqual(results[c][0], results[0][0]) {
			t.Errorf("caller %d diverges from caller 0", c)
		}
	}
}

func TestJobsKeyIdentity(t *testing.T) {
	a := smallJob(t, 1)
	b := smallJob(t, 1)
	ka, err := JobsKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := JobsKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("identical job lists have different keys")
	}
	kc, err := JobsKey(smallJob(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("different seeds share a job-list key")
	}
	empty, err := JobsKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty == ka {
		t.Error("empty job list shares a key with a non-empty one")
	}
}

// seededJobs compiles n fast single-run jobs with distinct seeds, so
// every job has its own content key.
func seededJobs(t *testing.T, n int) []Job {
	t.Helper()
	var jobs []Job
	for seed := int64(1); seed <= int64(n); seed++ {
		jobs = append(jobs, smallJob(t, seed)...)
	}
	return jobs
}

// TestConcurrentCallsShareWorkerBudget: Workers bounds the whole pool,
// so concurrent calls together never run more than Workers
// simulations at once.
func TestConcurrentCallsShareWorkerBudget(t *testing.T) {
	const workers, callers = 2, 4
	var running, peak atomic.Int64
	pool := &Pool{Workers: workers, simulate: func(netsim.Config) (netsim.Result, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return netsim.Result{}, nil
	}}
	jobs := seededJobs(t, 8)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := pool.RunJobsProgressContext(context.Background(), jobs, nil)
			if err != nil {
				t.Error(err)
			} else if out.Cached != 0 {
				t.Errorf("cache-less call resolved %d jobs without simulating", out.Cached)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != workers {
		t.Errorf("peak concurrent simulations = %d, want the budget of %d", p, workers)
	}
}

// TestSlotWaitEndsWithContext: a call blocked on a slot returns its
// cancel cause promptly, without simulating.
func TestSlotWaitEndsWithContext(t *testing.T) {
	var simulated atomic.Int64
	pool := &Pool{Workers: 1, simulate: func(netsim.Config) (netsim.Result, error) {
		simulated.Add(1)
		return netsim.Result{}, nil
	}}
	// Hold the only slot, as a long simulation of another call would.
	if err := pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer pool.release()

	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("client went away")
	errc := make(chan error, 1)
	go func() {
		_, err := pool.RunJobsProgressContext(ctx, smallJob(t, 1), nil)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call reach the slot wait
	cancel(cause)
	select {
	case err := <-errc:
		if !errors.Is(err, cause) {
			t.Errorf("err = %v, want the cancel cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call still waiting for a slot after its context ended")
	}
	if n := simulated.Load(); n != 0 {
		t.Errorf("%d simulations ran without a slot", n)
	}
}

// TestStalledCellHoldsNoSlot: a cell stalled by cell.stall leaves its
// slot to other calls.
func TestStalledCellHoldsNoSlot(t *testing.T) {
	plan, err := faultinject.Parse("cell.stall:delay=10s,count=1")
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.Activate(plan)()

	pool := &Pool{Workers: 1, simulate: func(netsim.Config) (netsim.Result, error) {
		return netsim.Result{}, nil
	}}
	stalled, steady := smallJob(t, 1), smallJob(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalledDone := make(chan struct{})
	go func() {
		defer close(stalledDone)
		if _, err := pool.RunJobsProgressContext(ctx, stalled, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("stalled call returned %v, want context.Canceled", err)
		}
	}()
	for faultinject.Fired(faultinject.CellStall) == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := pool.RunJobsProgressContext(context.Background(), steady, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalledDone:
		t.Error("stalled call finished first: the steady call waited out its stall")
	default:
	}
	cancel()
	<-stalledDone
}
