// Package sim implements the discrete-event simulation engine that
// underlies every experiment in this repository.
//
// The engine is deliberately small: a virtual clock, a priority queue of
// timestamped events and a deterministic random source. Determinism is a
// hard requirement — the paper reports averages over 20 seeded runs with
// confidence intervals, so a given seed must always produce the same
// trajectory. Ties between events scheduled for the same instant are
// broken by scheduling order (a monotone sequence number).
//
// # Design
//
// The hot path is engineered to be allocation-free:
//
//   - Events live in a value-typed 4-ary heap ordered by (time, seq).
//     Value entries avoid the per-event pointer allocation of a
//     []*event heap, and the 4-ary layout halves the tree depth,
//     trading a few extra comparisons per level for far fewer
//     cache-missing swaps.
//   - Callbacks live in a free-list-backed slot table. An EventID is a
//     handle packing the slot index and a per-slot generation counter,
//     so Cancel validates in O(1) without a map.
//   - Cancellation is lazy: Cancel only retires the slot (bumping its
//     generation); the heap entry stays behind and is discarded when it
//     surfaces at the root. A stale entry is recognised because the
//     slot's current sequence number no longer matches — the 64-bit
//     sequence never wraps, so pop-time liveness checks are exact and
//     the executed-event order is identical to eager removal.
//   - When more than half the queue is cancelled debris, the queue is
//     compacted in place (O(n) filter + re-heapify), bounding memory
//     for workloads that cancel almost everything they schedule, such
//     as protocol timers that are reset on every frame.
//
// The heap is the only pending-set structure. The paper's 36-node
// grid never holds more than about a hundred pending events, and even
// a 100k-node grid peaks below ten thousand, where O(log n) push/pop
// on a shallow 4-ary heap measured faster than a bucketed O(1) queue.
// An equivalence test against a naive reference scheduler pins the
// executed order.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured as an offset from the start of the
// simulation. It reuses time.Duration so that arithmetic and formatting
// come for free.
type Time = time.Duration

// EventID is a handle to a scheduled event, usable with Cancel. It packs
// a slot-table index (low 32 bits, offset by one) and the slot's
// generation at issue time (high 32 bits). The zero EventID is never
// issued. A handle stays valid until its event runs or is cancelled;
// after that, Cancel on it reports false. (A stale handle could only
// alias a later event after 2^32 reuses of one slot — unreachable in
// any simulation this engine hosts.)
type EventID uint64

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// event is one value-typed heap entry. The callback is not stored here —
// heap swaps move 24 bytes, and the entry stays valid even after its
// slot has been retired (lazy cancellation).
type event struct {
	at   Time
	seq  uint64
	slot uint32
}

// eventSlot holds the callback and liveness state for one handle.
type eventSlot struct {
	fn  func()
	seq uint64 // sequence of the occupying event; 0 when free
	gen uint32 // bumped on every retire; validates EventIDs
}

// before reports whether a runs before b in the deterministic
// (time, seq) order.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// compactMinDead is the minimum amount of cancelled debris in the queue
// before compaction is considered; below it the O(n) sweep costs more
// than it saves.
const compactMinDead = 64

// Scheduler owns the virtual clock and the pending event set.
// It is not safe for concurrent use; simulations are single-goroutine by
// design (determinism).
type Scheduler struct {
	now     Time
	queue   []event     // 4-ary min-heap on (at, seq)
	slots   []eventSlot // handle table
	free    []uint32    // retired slot indices, reused LIFO
	live    int         // scheduled and not yet run or cancelled
	dead    int         // cancelled entries still buried in queue
	nextSeq uint64
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed since construction; useful for
	// benchmarks and run diagnostics. Cancelled events never count.
	Processed uint64
}

// NewScheduler returns a scheduler starting at virtual time zero with a
// deterministic random source derived from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Schedule registers fn to run at virtual time at. It returns an EventID
// usable with Cancel, or an error if at precedes the current time.
func (s *Scheduler) Schedule(at Time, fn func()) (EventID, error) {
	if at < s.now {
		return 0, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	s.nextSeq++
	seq := s.nextSeq
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, eventSlot{})
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.fn = fn
	sl.seq = seq
	s.push(event{at: at, seq: seq, slot: idx})
	s.live++
	return EventID(uint64(sl.gen)<<32 | uint64(idx+1)), nil
}

// After schedules fn to run d from now. Negative d is clamped to now, so
// protocol code can express "immediately" with zero.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	id, err := s.Schedule(s.now+d, fn)
	if err != nil {
		// Unreachable: s.now+d >= s.now for d >= 0. Guard anyway.
		return 0
	}
	return id
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already ran, was cancelled, or never existed).
// The heap entry is retired lazily: it is skipped when it reaches the
// queue head, so Cancel itself is O(1).
func (s *Scheduler) Cancel(id EventID) bool {
	idx := uint32(id & 0xffffffff)
	if idx == 0 || int(idx) > len(s.slots) {
		return false
	}
	sl := &s.slots[idx-1]
	if sl.seq == 0 || sl.gen != uint32(id>>32) {
		return false
	}
	s.retire(idx - 1)
	s.live--
	s.dead++
	if s.dead >= compactMinDead && s.dead > len(s.queue)/2 {
		s.compact()
	}
	return true
}

// retire frees a slot: the callback is released, the occupying sequence
// cleared (so buried heap entries stop matching) and the generation
// bumped (so outstanding EventIDs stop matching).
func (s *Scheduler) retire(idx uint32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.seq = 0
	sl.gen++
	s.free = append(s.free, idx)
}

// Pending returns the number of events waiting to run. Cancelled events
// are never counted, even while their heap entries await lazy discard,
// and compaction does not change the count.
func (s *Scheduler) Pending() int { return s.live }

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		e := s.queue[0]
		live := s.slots[e.slot].seq == e.seq
		fn := s.slots[e.slot].fn
		s.pop()
		if !live {
			s.dead--
			continue
		}
		s.retire(e.slot)
		s.live--
		s.now = e.at
		s.Processed++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving later
// events pending, and advances the clock to deadline if the simulation
// did not already pass it. It stops early if Stop is called.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// peek returns the timestamp of the earliest live event, discarding any
// cancelled debris that has surfaced at the heap root.
func (s *Scheduler) peek() (Time, bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if s.slots[e.slot].seq == e.seq {
			return e.at, true
		}
		s.pop()
		s.dead--
	}
	return 0, false
}

// 4-ary heap primitives. Children of i sit at 4i+1..4i+4.

func (s *Scheduler) push(e event) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(s.queue[p]) {
			break
		}
		s.queue[i] = s.queue[p]
		i = p
	}
	s.queue[i] = e
}

func (s *Scheduler) pop() {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
}

// siftDown places e at index i and restores the heap below it.
func (s *Scheduler) siftDown(i int, e event) {
	q := s.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}

// compact filters cancelled entries out of the heap in place and
// re-heapifies. Sift-downs only reorder by (at, seq) comparisons, so
// the surviving execution order is unchanged.
func (s *Scheduler) compact() {
	kept := s.queue[:0]
	for _, e := range s.queue {
		if s.slots[e.slot].seq == e.seq {
			kept = append(kept, e)
		}
	}
	s.queue = kept
	s.dead = 0
	if len(kept) < 2 {
		return
	}
	for i := (len(kept) - 2) / 4; i >= 0; i-- {
		s.siftDown(i, kept[i])
	}
}
