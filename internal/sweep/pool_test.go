package sweep

import (
	"sync"
	"testing"
	"time"

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
	// concurrent Run calls over one pool and one configuration must all
	// succeed and agree (exercised under -race in CI).
	jobs := smallJob(t, 44)
	pool := &Pool{Workers: 2, Cache: NewCache()}
	const callers = 6
	results := make([][]netsim.Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Run(jobs)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = res
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
