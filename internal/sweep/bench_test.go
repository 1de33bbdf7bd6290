package sweep

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/params"
)

// benchSpec is a 16-cell dual grid, sized so one serial pass takes
// long enough for the pool's speedup to dominate scheduling overhead.
func benchSpec() Spec {
	base := netsim.DefaultConfig(netsim.ModelDual, 5, 10, 1)
	base.Rate = params.HighRate
	base.Duration = 120 * time.Second
	return Spec{
		Base:     base,
		Senders:  []int{5, 10, 15, 20},
		Bursts:   []int{10, 100},
		Runs:     2,
		BaseSeed: 1,
	}
}

// BenchmarkSweepParallel compares 1 worker against runtime.NumCPU
// workers over the same uncached sweep; the ratio of the two ns/op
// figures is the pool's wall-clock speedup on this machine.
func BenchmarkSweepParallel(b *testing.B) {
	jobs, err := benchSpec().Jobs()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pool := &Pool{Workers: workers} // no cache: measure simulation
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pool.RunJobs(jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepCached measures a fully warm cache pass: the cost of
// re-running an already-simulated sweep.
func BenchmarkSweepCached(b *testing.B) {
	jobs, err := benchSpec().Jobs()
	if err != nil {
		b.Fatal(err)
	}
	pool := &Pool{Cache: NewCache()}
	if _, err := pool.RunJobs(jobs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunJobs(jobs); err != nil {
			b.Fatal(err)
		}
	}
}
