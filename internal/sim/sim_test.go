package sim

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	for _, at := range []Time{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		at := at
		if _, err := s.Schedule(at, func() { got = append(got, at) }); err != nil {
			t.Fatalf("Schedule(%v): %v", at, err)
		}
	}
	s.Run()
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.Schedule(time.Second, func() { order = append(order, i) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v, want ascending", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Second, func() {})
	s.Run()
	if _, err := s.Schedule(500*time.Millisecond, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("Schedule in past returned %v, want ErrPastEvent", err)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	id := s.After(time.Second, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(id) {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if ran {
		t.Error("cancelled event still ran")
	}
}

func TestCancelAfterRun(t *testing.T) {
	s := NewScheduler(1)
	id := s.After(0, func() {})
	s.Run()
	if s.Cancel(id) {
		t.Error("Cancel returned true for already-executed event")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	ids := make([]EventID, 5)
	for i := 0; i < 5; i++ {
		i := i
		ids[i] = s.After(time.Duration(i+1)*time.Second, func() { got = append(got, i) })
	}
	if !s.Cancel(ids[2]) {
		t.Fatal("Cancel failed")
	}
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var ran []string
	s.After(time.Second, func() { ran = append(ran, "a") })
	s.After(3*time.Second, func() { ran = append(ran, "b") })
	s.RunUntil(2 * time.Second)
	if len(ran) != 1 || ran[0] != "a" {
		t.Errorf("ran %v, want [a]", ran)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.RunUntil(5 * time.Second)
	if len(ran) != 2 {
		t.Errorf("second RunUntil did not run remaining event: %v", ran)
	}
}

func TestRunUntilEventAtDeadlineRuns(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(2*time.Second, func() { ran = true })
	s.RunUntil(2 * time.Second)
	if !ran {
		t.Error("event scheduled exactly at the deadline did not run")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Errorf("ran %d events after Stop, want 2", count)
	}
}

func TestEventScheduledDuringEvent(t *testing.T) {
	s := NewScheduler(1)
	var trace []Time
	s.After(time.Second, func() {
		trace = append(trace, s.Now())
		s.After(time.Second, func() { trace = append(trace, s.Now()) })
	})
	s.Run()
	if len(trace) != 2 || trace[0] != time.Second || trace[1] != 2*time.Second {
		t.Errorf("trace = %v, want [1s 2s]", trace)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Second, func() {})
	s.Run()
	ran := false
	s.After(-time.Hour, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("After with negative delay did not run")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewScheduler(42), NewScheduler(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestProcessedCount(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Processed != 7 {
		t.Errorf("Processed = %d, want 7", s.Processed)
	}
}

// Property: any set of schedule times is executed in sorted order.
func TestRunOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := NewScheduler(7)
		var got []Time
		for _, d := range delaysMs {
			at := Time(d) * time.Millisecond
			if _, err := s.Schedule(at, func() { got = append(got, at) }); err != nil {
				return false
			}
		}
		s.Run()
		if len(got) != len(delaysMs) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset runs exactly the complement.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		s := NewScheduler(1)
		total := int(n%64) + 1
		ran := make([]bool, total)
		ids := make([]EventID, total)
		for i := 0; i < total; i++ {
			i := i
			ids[i] = s.After(time.Duration(i)*time.Millisecond, func() { ran[i] = true })
		}
		rng := rand.New(rand.NewSource(seed))
		cancelled := make(map[int]bool)
		for i := 0; i < total/2; i++ {
			k := rng.Intn(total)
			if !cancelled[k] {
				if !s.Cancel(ids[k]) {
					return false
				}
				cancelled[k] = true
			}
		}
		s.Run()
		for i := 0; i < total; i++ {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Lazy cancellation leaves retired entries buried in the heap until they
// surface; none of that debris may leak into the pending count, the
// processed count, or the clock.
func TestPendingExcludesCancelled(t *testing.T) {
	s := NewScheduler(1)
	ids := make([]EventID, 6)
	for i := 0; i < 6; i++ {
		ids[i] = s.After(time.Duration(i+1)*time.Second, func() {})
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending() = %d, want 6", got)
	}
	s.Cancel(ids[0]) // head of the heap
	s.Cancel(ids[3]) // buried in the middle
	if got := s.Pending(); got != 4 {
		t.Errorf("Pending() after 2 cancels = %d, want 4", got)
	}
	// The cancelled head must not advance the clock or count as work.
	if !s.Step() {
		t.Fatal("Step() found no live event")
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s (cancelled 1s head skipped)", s.Now())
	}
	if s.Processed != 1 {
		t.Errorf("Processed = %d, want 1", s.Processed)
	}
	if got := s.Pending(); got != 3 {
		t.Errorf("Pending() after Step = %d, want 3", got)
	}
	s.Run()
	if s.Processed != 4 {
		t.Errorf("Processed = %d after Run, want 4", s.Processed)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() after Run = %d, want 0", got)
	}
}

// An all-cancelled queue is empty for every observable purpose.
func TestAllCancelledQueueIsEmpty(t *testing.T) {
	s := NewScheduler(1)
	ids := make([]EventID, 5)
	for i := range ids {
		ids[i] = s.After(time.Duration(i+1)*time.Second, func() {})
	}
	for _, id := range ids {
		if !s.Cancel(id) {
			t.Fatal("Cancel failed")
		}
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() = %d, want 0", got)
	}
	if s.Step() {
		t.Error("Step() executed a cancelled event")
	}
	s.RunUntil(10 * time.Second)
	if s.Now() != 10*time.Second {
		t.Errorf("Now() = %v, want 10s", s.Now())
	}
	if s.Processed != 0 {
		t.Errorf("Processed = %d, want 0", s.Processed)
	}
}

// RunUntil must not execute a live event that sits behind cancelled
// debris with a timestamp past the deadline.
func TestRunUntilSkipsCancelledPastDeadline(t *testing.T) {
	s := NewScheduler(1)
	id := s.After(1*time.Second, func() {})
	ran := false
	s.After(5*time.Second, func() { ran = true })
	s.Cancel(id)
	s.RunUntil(2 * time.Second)
	if ran {
		t.Error("RunUntil(2s) executed the 5s event")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
}

// Cancelled debris at the heap root is discarded on the way to the
// deadline check, whether the debris itself lies before or past the
// deadline, and Pending keeps counting only the live event.
func TestRunUntilDiscardsDebrisAheadOfLateEvent(t *testing.T) {
	s := NewScheduler(1)
	early := s.After(1*time.Second, func() {})
	late := s.After(3*time.Second, func() {})
	ran := false
	s.After(5*time.Second, func() { ran = true })
	s.Cancel(early)
	s.Cancel(late)
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after cancels, want 1", s.Pending())
	}
	s.RunUntil(2 * time.Second)
	if ran {
		t.Error("RunUntil(2s) executed the 5s event")
	}
	if s.Pending() != 1 || len(s.queue) != 1 || s.dead != 0 {
		t.Errorf("after RunUntil(2s): Pending() = %d, queue %d, dead %d; want 1, 1, 0",
			s.Pending(), len(s.queue), s.dead)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	s.RunUntil(5 * time.Second)
	if !ran || s.Pending() != 0 || len(s.queue) != 0 {
		t.Errorf("after RunUntil(5s): ran %v, Pending() = %d, queue %d; want true, 0, 0", ran, s.Pending(), len(s.queue))
	}
}

// The branchless 128-bit (at, seq) comparison must agree with the
// two-branch lexicographic definition on every boundary pair.
func TestEventBeforeMatchesBranchyOrder(t *testing.T) {
	branchy := func(a, b event) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	}
	ats := []Time{0, 1, 2, time.Second, math.MaxInt64 / 2, math.MaxInt64/2 + 1, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, math.MaxUint32, math.MaxUint32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	var evs []event
	for _, at := range ats {
		for _, seq := range seqs {
			evs = append(evs, event{at: at, seq: seq})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		evs = append(evs, event{at: Time(rng.Int63()), seq: rng.Uint64()})
	}
	for _, a := range evs {
		for _, b := range evs {
			if got, want := a.before(b), branchy(a, b); got != want {
				t.Fatalf("(%d,%d).before(%d,%d) = %v, want %v", a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
}

// Heavy cancel churn (the protocol-timer pattern) must keep the heap
// compacted rather than accumulating one dead entry per reset.
func TestCancelChurnCompacts(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, func() {})
	for i := 0; i < 100000; i++ {
		tm.Reset(time.Millisecond)
	}
	if got := len(s.queue) + s.laned; got > 4*compactMinDead {
		t.Errorf("heap and lanes hold %d entries after churn, want <= %d", got, 4*compactMinDead)
	}
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending() = %d, want 1", got)
	}
	tm.Stop()
	if got := s.Pending(); got != 0 {
		t.Errorf("Pending() after Stop = %d, want 0", got)
	}
}

func TestTimerFires(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(time.Second)
	if !tm.Armed() {
		t.Error("timer not armed after Reset")
	}
	s.Run()
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Error("Stop returned false for armed timer")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	s.Run()
	if fired != 0 {
		t.Errorf("stopped timer fired %d times", fired)
	}
}

func TestTimerResetReplaces(t *testing.T) {
	s := NewScheduler(1)
	var at []Time
	tm := NewTimer(s, func() { at = append(at, s.Now()) })
	tm.Reset(time.Second)
	tm.Reset(3 * time.Second)
	s.Run()
	if len(at) != 1 || at[0] != 3*time.Second {
		t.Errorf("timer fired at %v, want [3s]", at)
	}
}

func TestTimerReuseAfterFire(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(time.Second)
	s.Run()
	tm.Reset(time.Second)
	s.Run()
	if fired != 2 {
		t.Errorf("fired %d times across two arms, want 2", fired)
	}
}

// Events of one delay queue in that delay's lane behind a single heap
// entry, and still run in (time, seq) order interleaved with other
// delays; a drained lane leaves nothing behind.
func TestSameDelayEventsShareALane(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 100; i++ {
		s.After(10*time.Millisecond, func() { order = append(order, i) })
		if i%10 == 0 {
			s.After(time.Duration(i)*100*time.Microsecond, func() { order = append(order, 1000+i) })
		}
	}
	if len(s.queue) > 11 || s.laned < 99 {
		t.Fatalf("heap holds %d entries and lanes %d, want <= 11 and >= 99", len(s.queue), s.laned)
	}
	s.Run()
	want := []int{1000, 1010, 1020, 1030, 1040, 1050, 1060, 1070, 1080, 1090}
	for i := 0; i < 100; i++ {
		want = append(want, i)
	}
	if !slices.Equal(order, want) {
		t.Errorf("executed %v, want %v", order, want)
	}
	if len(s.queue) != 0 || s.laned != 0 || s.Pending() != 0 {
		t.Errorf("drained scheduler: heap %d, lanes %d, pending %d", len(s.queue), s.laned, s.Pending())
	}
}
