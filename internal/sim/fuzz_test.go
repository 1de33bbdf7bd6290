package sim

import (
	"testing"
	"time"
)

// fuzzDelays are the repeated delays most fuzz ops draw from, so lanes
// fill and drain; the other ops draw one of 256 delays, which collide
// in the lane table and re-key idle lanes.
var fuzzDelays = [...]time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond, 128 * time.Millisecond}

// fuzzTimers is how many Timers a fuzz script drives.
const fuzzTimers = 4

// FuzzScheduler decodes a byte script of Schedule, After, Cancel,
// Timer.Reset, Timer.Stop and Step operations, runs it against the
// scheduler and the naive reference, and requires the same results,
// Pending counts, executed order, clock and Processed count. A burst op
// schedules and cancels a run of same-delay events, so scripts reach
// lane and heap compaction quickly. Events whose label is divisible by
// three schedule a child when they run, on both sides.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 5, 5, 5})
	f.Add([]byte{0, 3, 0, 3, 1, 200, 0, 4, 2, 0, 3, 1, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{6, 1, 6, 2, 6, 3, 3, 0, 1, 4, 1, 2, 5, 5, 6, 1, 5, 5, 5, 5})
	f.Add([]byte{7, 1, 7, 1, 7, 1, 0, 1, 5, 7, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{8, 17, 8, 99, 0, 2, 2, 0, 5, 8, 250, 5, 5, 5, 9, 40, 5, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := NewScheduler(1)
		ref := &refScheduler{}
		var got, want []int
		var simFn func(l int) func()
		simFn = func(l int) func() {
			return func() {
				got = append(got, l)
				if l%3 == 0 {
					s.After(fuzzDelays[l%len(fuzzDelays)], simFn(l+1))
				}
			}
		}
		var refFn func(l int) func()
		refFn = func(l int) func() {
			return func() {
				want = append(want, l)
				if l%3 == 0 {
					ref.schedule(fuzzDelays[l%len(fuzzDelays)], refFn(l+1))
				}
			}
		}
		var simIDs []EventID
		var refIDs []uint64
		label := 1000 // labels of scripted events; children count up from them
		schedule := func(d time.Duration, abs bool) {
			label += 3
			l := label
			if abs {
				id, err := s.Schedule(s.Now()+max(d, 0), simFn(l))
				if err != nil {
					t.Fatalf("Schedule(now%+v): %v", d, err)
				}
				simIDs = append(simIDs, id)
			} else {
				simIDs = append(simIDs, s.After(d, simFn(l)))
			}
			refIDs = append(refIDs, ref.schedule(d, refFn(l)))
		}
		var timers [fuzzTimers]*Timer
		var timerRef [fuzzTimers]uint64
		for i := range timers {
			l := -(i + 1) // negative labels never spawn children
			timers[i] = NewTimer(s, func() { got = append(got, l) })
		}

		for pc := 0; pc+1 < len(script); pc += 2 {
			op, arg := script[pc], script[pc+1]
			d := fuzzDelays[int(arg)%len(fuzzDelays)]
			switch op % 10 {
			case 0: // After, repeated delay
				schedule(d, false)
			case 1: // After, one of 256 delays (possibly negative)
				schedule(time.Duration(int(arg)-16)*37*time.Microsecond, false)
			case 2: // Schedule at an absolute time
				schedule(d, true)
			case 3, 4: // Cancel a scripted event (possibly run or cancelled)
				if len(simIDs) == 0 {
					continue
				}
				i := int(arg) % len(simIDs)
				if g, w := s.Cancel(simIDs[i]), ref.cancel(refIDs[i]); g != w {
					t.Fatalf("op %d: Cancel(event %d) = %v, reference %v", pc/2, i, g, w)
				}
			case 5: // Step
				if g, w := s.Step(), ref.step(); g != w {
					t.Fatalf("op %d: Step() = %v, reference %v", pc/2, g, w)
				}
			case 6, 7: // Timer.Reset
				i := int(arg) % fuzzTimers
				tm := timers[i]
				armed := tm.Armed()
				timers[i].Reset(d)
				if armed != ref.cancel(timerRef[i]) {
					t.Fatalf("op %d: timer %d armed %v disagrees with the reference", pc/2, i, armed)
				}
				l := -(i + 1)
				timerRef[i] = ref.schedule(d, func() { want = append(want, l) })
			case 8: // Timer.Stop
				i := int(arg) % fuzzTimers
				if g, w := timers[i].Stop(), ref.cancel(timerRef[i]); g != w {
					t.Fatalf("op %d: timer %d Stop() = %v, reference %v", pc/2, i, g, w)
				}
			case 9: // burst: arg events of one delay, all cancelled again
				var ids []EventID
				for range int(arg) {
					ids = append(ids, s.After(d, func() { t.Fatal("a cancelled burst event ran") }))
				}
				for _, id := range ids {
					if !s.Cancel(id) {
						t.Fatal("Cancel of a pending burst event failed")
					}
				}
			}
			if s.Pending() != len(ref.pending) {
				t.Fatalf("op %d: Pending() = %d, reference %d", pc/2, s.Pending(), len(ref.pending))
			}
		}
		for s.Step() {
		}
		for ref.step() {
		}
		if len(got) != len(want) {
			t.Fatalf("executed %d events, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("execution order diverges at %d: got %d, want %d", i, got[i], want[i])
			}
		}
		if s.Now() != ref.now || s.Processed != ref.processed {
			t.Fatalf("clock/processed (%v, %d), reference (%v, %d)", s.Now(), s.Processed, ref.now, ref.processed)
		}
		if n := len(s.queue) + s.laned; s.dead != 0 || n != 0 {
			t.Fatalf("drained scheduler holds %d entries, %d dead", n, s.dead)
		}
	})
}
