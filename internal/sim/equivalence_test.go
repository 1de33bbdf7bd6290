package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refScheduler is a deliberately naive reference implementation: an
// unordered pending list scanned linearly for the (at, seq) minimum,
// with eager cancellation. It defines the semantics the optimized
// value-heap scheduler must reproduce exactly.
type refScheduler struct {
	now       Time
	seq       uint64
	pending   []refEvent
	processed uint64
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refScheduler) schedule(d time.Duration, fn func()) uint64 {
	if d < 0 {
		d = 0
	}
	r.seq++
	r.pending = append(r.pending, refEvent{at: r.now + d, seq: r.seq, fn: fn})
	return r.seq
}

func (r *refScheduler) cancel(seq uint64) bool {
	for i, e := range r.pending {
		if e.seq == seq {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refScheduler) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	m := 0
	for i, e := range r.pending {
		if e.at < r.pending[m].at || (e.at == r.pending[m].at && e.seq < r.pending[m].seq) {
			m = i
		}
	}
	e := r.pending[m]
	r.pending = append(r.pending[:m], r.pending[m+1:]...)
	r.now = e.at
	r.processed++
	e.fn()
	return true
}

// equivalenceRun drives the real scheduler and the reference in
// lockstep through one random script, keeping parallel handle tables
// (script slot -> per-scheduler ID) and per-side execution logs.
type equivalenceRun struct {
	t        *testing.T
	trial    int
	rng      *rand.Rand
	maxDelay int // delays are drawn from [0, maxDelay) milliseconds
	s        *Scheduler
	ref      *refScheduler

	gotLog, wantLog []int
	simIDs          []EventID
	refIDs          []uint64
	peak            int // largest Pending() seen
	compacted       int // most cancelled debris cleared by one op
}

func newEquivalenceRun(t *testing.T, trial int, seed int64, maxDelay int) *equivalenceRun {
	return &equivalenceRun{
		t:        t,
		trial:    trial,
		rng:      rand.New(rand.NewSource(seed)),
		maxDelay: maxDelay,
		s:        NewScheduler(1),
		ref:      &refScheduler{},
	}
}

// ops applies n random operations, chosen with the relative weights w
// of schedule, cancel, reset and step, and checks Pending() against
// the reference after each one.
func (r *equivalenceRun) ops(n int, w [4]int) {
	t, s, ref := r.t, r.s, r.ref
	for op := 0; op < n; op++ {
		dead := s.dead
		switch k := r.rng.Intn(w[0] + w[1] + w[2] + w[3]); {
		case k < w[0]: // schedule
			l := len(r.simIDs)
			d := time.Duration(r.rng.Intn(r.maxDelay)) * time.Millisecond
			r.simIDs = append(r.simIDs, s.After(d, func() { r.gotLog = append(r.gotLog, l) }))
			r.refIDs = append(r.refIDs, ref.schedule(d, func() { r.wantLog = append(r.wantLog, l) }))
		case k < w[0]+w[1]: // cancel a random script slot (possibly already dead)
			if len(r.simIDs) == 0 {
				continue
			}
			i := r.rng.Intn(len(r.simIDs))
			g := s.Cancel(r.simIDs[i])
			w := ref.cancel(r.refIDs[i])
			if g != w {
				t.Fatalf("trial %d op %d: Cancel(slot %d) = %v, reference says %v", r.trial, op, i, g, w)
			}
		case k < w[0]+w[1]+w[2]: // reset: cancel + reschedule under the same script slot
			if len(r.simIDs) == 0 {
				continue
			}
			i := r.rng.Intn(len(r.simIDs))
			d := time.Duration(r.rng.Intn(r.maxDelay)) * time.Millisecond
			g := s.Cancel(r.simIDs[i])
			w := ref.cancel(r.refIDs[i])
			if g != w {
				t.Fatalf("trial %d op %d: reset-cancel(slot %d) = %v, reference says %v", r.trial, op, i, g, w)
			}
			if g {
				r.simIDs[i] = s.After(d, func() { r.gotLog = append(r.gotLog, i) })
				r.refIDs[i] = ref.schedule(d, func() { r.wantLog = append(r.wantLog, i) })
			}
		default: // step
			g := s.Step()
			w := ref.step()
			if g != w {
				t.Fatalf("trial %d op %d: Step() = %v, reference says %v", r.trial, op, g, w)
			}
		}
		if s.Pending() != len(ref.pending) {
			t.Fatalf("trial %d op %d: Pending() = %d, reference has %d",
				r.trial, op, s.Pending(), len(ref.pending))
		}
		r.peak = max(r.peak, s.Pending())
		if s.dead == 0 {
			r.compacted = max(r.compacted, dead)
		}
	}
}

// finish drains both schedulers and compares execution order, clock
// and processed count.
func (r *equivalenceRun) finish() {
	t, s, ref := r.t, r.s, r.ref
	for s.Step() {
	}
	for ref.step() {
	}
	if len(r.gotLog) != len(r.wantLog) {
		t.Fatalf("trial %d: executed %d events, reference %d", r.trial, len(r.gotLog), len(r.wantLog))
	}
	for i := range r.wantLog {
		if r.gotLog[i] != r.wantLog[i] {
			t.Fatalf("trial %d: execution order diverges at index %d: got %d, want %d",
				r.trial, i, r.gotLog[i], r.wantLog[i])
		}
	}
	if s.Now() != ref.now {
		t.Fatalf("trial %d: clock %v, reference %v", r.trial, s.Now(), ref.now)
	}
	if s.Processed != ref.processed {
		t.Fatalf("trial %d: Processed %d, reference %d", r.trial, s.Processed, ref.processed)
	}
}

// TestSchedulerEquivalence drives the real scheduler and the reference
// with an identical random script of Schedule/Cancel/Reset/Step ops and
// asserts identical execution order, clock, pending count, and processed
// count throughout. Colliding timestamps are frequent by construction
// (50 distinct delays across hundreds of events) so the (time, seq)
// tie-break is exercised hard; the reset op (cancel + reschedule, one
// sequence number on each side) mirrors Timer.Reset's churn, the
// workload that generates cancelled debris.
//
// The large-pending trial holds about ten thousand pending events under
// reset-heavy churn — the pending-set size a 100k-node grid reaches —
// until the heap compacts away thousands of cancelled entries at once,
// so deep heaps and large compactions are held to the reference too.
func TestSchedulerEquivalence(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		for trial := 0; trial < 25; trial++ {
			r := newEquivalenceRun(t, trial, int64(1000+trial), 50)
			r.ops(300+r.rng.Intn(300), [4]int{6, 2, 2, 2})
			r.finish()
		}
	})

	t.Run("large-pending", func(t *testing.T) {
		const target = 10000
		r := newEquivalenceRun(t, 25, 1025, 1000)
		r.ops(target, [4]int{1, 0, 0, 0})
		r.ops(3*target, [4]int{3, 1, 8, 2})
		if r.peak < target {
			t.Fatalf("large trial peaked at %d pending events, want >= %d", r.peak, target)
		}
		if r.compacted < target/2 {
			t.Fatalf("large trial compacted at most %d cancelled entries at once, want >= %d", r.compacted, target/2)
		}
		r.finish()
	})
}

// TestSchedulerEquivalenceNested repeats the exercise with reentrancy:
// every executed event whose label is divisible by three schedules a
// child (with a label derived deterministically from its own), and
// labels divisible by five cancel the child they scheduled one beat
// earlier. Both sides derive children independently, so any divergence
// in execution order cascades into a visible log mismatch.
func TestSchedulerEquivalenceNested(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			s := NewScheduler(1)
			ref := &refScheduler{}
			var gotLog, wantLog []int

			var simFn func(l, depth int) func()
			simFn = func(l, depth int) func() {
				return func() {
					gotLog = append(gotLog, l)
					if depth > 0 && l%3 == 0 {
						d := time.Duration(l%11) * time.Millisecond
						id := s.After(d, simFn(l*5+1, depth-1))
						if l%5 == 0 {
							s.Cancel(id)
						}
					}
				}
			}
			var refFn func(l, depth int) func()
			refFn = func(l, depth int) func() {
				return func() {
					wantLog = append(wantLog, l)
					if depth > 0 && l%3 == 0 {
						d := time.Duration(l%11) * time.Millisecond
						id := ref.schedule(d, refFn(l*5+1, depth-1))
						if l%5 == 0 {
							ref.cancel(id)
						}
					}
				}
			}

			for i := 0; i < 120; i++ {
				l := rng.Intn(1000)
				d := time.Duration(rng.Intn(30)) * time.Millisecond
				s.After(d, simFn(l, 4))
				ref.schedule(d, refFn(l, 4))
			}
			s.Run()
			for ref.step() {
			}

			if len(gotLog) != len(wantLog) {
				t.Fatalf("trial %d: executed %d events, reference %d", trial, len(gotLog), len(wantLog))
			}
			for i := range wantLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("trial %d: execution order diverges at index %d: got %d, want %d",
						trial, i, gotLog[i], wantLog[i])
				}
			}
			if s.Now() != ref.now || s.Processed != ref.processed {
				t.Fatalf("trial %d: clock/processed (%v, %d) vs reference (%v, %d)",
					trial, s.Now(), s.Processed, ref.now, ref.processed)
			}
		}
	})
}
