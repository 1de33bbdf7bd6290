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
//   - Callbacks live in a free-list-backed slot table; a Timer's slot
//     holds the *Timer itself, so arming one never allocates a
//     closure. An EventID is a handle packing the slot index and a
//     per-slot generation counter, so Cancel validates in O(1) without
//     a map.
//   - Cancellation is lazy: Cancel only retires the slot (bumping its
//     generation); the queued entry stays behind and is discarded when
//     it surfaces at the heap root. A stale entry is recognised because the
//     slot's current sequence number no longer matches — the 64-bit
//     sequence never wraps, so pop-time liveness checks are exact and
//     the executed-event order is identical to eager removal.
//   - Events scheduled with the same delay arrive in (time, seq) order,
//     because the clock never runs backwards and sequence numbers only
//     grow. Each recent delay therefore gets a FIFO lane (a ring
//     buffer), and only a lane's head sits in the heap; popping a head
//     moves the lane's next entry into the heap in the same sift. The
//     senders' CBR ticks, MAC interframe spaces, ack timeouts and frame
//     airtimes all repeat a handful of delays, so most events never
//     enter the heap at all and the heap stays a few entries deep.
//     Lanes live in a small direct-mapped table hashed on the delay, so
//     finding one is O(1); an idle lane is re-keyed to the next delay
//     that hashes to it, and a delay whose bucket is busy with another
//     delay simply goes into the heap on its own.
//   - When more than half of the pending entries (heap and lanes) are
//     cancelled debris, both are compacted in place (O(n) filter +
//     re-heapify), bounding memory for workloads that cancel almost
//     everything they schedule, such as protocol timers that are reset
//     on every frame.
//
// The paper's 36-node grid never holds more than about a hundred
// pending events, and even a 100k-node grid peaks below ten thousand,
// where O(log n) push/pop on a shallow 4-ary heap measured faster than
// a bucketed O(1) calendar queue. Equivalence tests and a fuzz target
// against a naive reference scheduler pin the executed order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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

// event is one value-typed queue entry, in the heap or in a lane. The
// callback is not stored here — heap swaps move 24 bytes, and the entry
// stays valid even after its slot has been retired (lazy cancellation).
type event struct {
	at   Time
	seq  uint64
	slot uint32
	lane uint32 // index+1 of the lane the entry belongs to; 0 for none
}

// eventSlot holds the callback and liveness state for one handle.
type eventSlot struct {
	fn    func()
	timer *Timer // set instead of fn for a Timer's expiry
	seq   uint64 // sequence of the occupying event; 0 when free
	gen   uint32 // bumped on every retire; validates EventIDs
}

// before reports whether a runs before b in the deterministic
// (time, seq) order. It compares (at, seq) as one 128-bit unsigned
// number, without branches: the borrow out of a-b is set exactly when
// a < b. Reading at as unsigned is exact because queued times are
// never negative: Schedule rejects times before now, which starts at
// zero and never decreases.
func (a event) before(b event) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow != 0
}

// maxTime is the latest representable virtual time.
const maxTime = Time(math.MaxInt64)

// compactMinDead is the minimum amount of cancelled debris in the heap
// and lanes before compaction is considered; below it the O(n) sweep
// costs more than it saves.
const compactMinDead = 64

// laneBits sizes the lane table: 1<<laneBits direct-mapped buckets.
const laneBits = 6

// lane is the FIFO of one delay's pending events. Its head entry sits
// in the heap (active is set while it does); buf is a ring of the
// entries behind the head, in (at, seq) order. A lane without a head
// holds nothing and may be re-keyed to another delay.
type lane struct {
	delay  Time
	active bool
	buf    []event // ring; len is zero or a power of two
	head   int     // index of the oldest entry in buf
	n      int     // entries in the ring
}

// put appends e at the ring's tail, doubling the ring when full.
func (l *lane) put(e event) {
	if l.n == len(l.buf) {
		grown := make([]event, max(4, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

// take removes and returns the ring's oldest entry; the ring must not
// be empty. The slot it leaves is reused by later puts, so a lane's
// consumed prefix never accumulates.
func (l *lane) take() event {
	e := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// laneIndex hashes a delay to its lane bucket (Fibonacci hashing: the
// top bits of the product mix every bit of the delay).
func laneIndex(d Time) uint32 {
	return uint32((uint64(d) * 0x9E3779B97F4A7C15) >> (64 - laneBits))
}

// Scheduler owns the virtual clock and the pending event set.
// It is not safe for concurrent use; simulations are single-goroutine by
// design (determinism).
type Scheduler struct {
	now     Time
	queue   []event // 4-ary min-heap on (at, seq): lane heads and laneless events
	lanes   [1 << laneBits]lane
	laned   int         // entries waiting in lane rings (not in the heap)
	slots   []eventSlot // handle table
	free    []uint32    // retired slot indices, reused LIFO
	live    int         // scheduled and not yet run or cancelled
	dead    int         // cancelled entries still buried in the heap or lanes
	nextSeq uint64
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed since construction, plus those
	// folded into a running callback (see CountFolded); useful for
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

// Clock returns the address of the virtual clock, for readers on the
// hot path (the energy meters) that would otherwise call Now through a
// method value: *Clock() equals Now() for the scheduler's lifetime.
// Readers must not write through it.
func (s *Scheduler) Clock() *Time { return &s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Schedule registers fn to run at virtual time at. It returns an EventID
// usable with Cancel, or an error if at precedes the current time.
func (s *Scheduler) Schedule(at Time, fn func()) (EventID, error) {
	if at < s.now {
		return 0, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	return s.add(at, fn, nil), nil
}

// After schedules fn to run d from now. Negative d is clamped to now, so
// protocol code can express "immediately" with zero.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	return s.after(d, fn, nil)
}

// after is After for a callback or a timer. A time past the end of the
// clock schedules nothing and returns the zero EventID.
func (s *Scheduler) after(d time.Duration, fn func(), t *Timer) EventID {
	at := s.now + max(d, 0)
	if at < s.now {
		return 0
	}
	return s.add(at, fn, t)
}

// add queues one event at at >= now, running fn or, when fn is nil,
// firing timer t.
func (s *Scheduler) add(at Time, fn func(), t *Timer) EventID {
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
	sl.timer = t
	sl.seq = seq
	s.live++
	e := event{at: at, seq: seq, slot: idx}
	// Entries of one delay arrive in (at, seq) order, so behind an
	// active lane of the same delay the entry only needs a ring slot.
	d := at - s.now
	li := laneIndex(d)
	l := &s.lanes[li]
	switch {
	case !l.active:
		l.delay, l.active = d, true
		e.lane = li + 1
		s.push(e)
	case l.delay == d:
		e.lane = li + 1
		l.put(e)
		s.laned++
	default:
		s.push(e) // the bucket is busy with another delay
	}
	return EventID(uint64(sl.gen)<<32 | uint64(idx+1))
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already ran, was cancelled, or never existed).
// The queued entry is retired lazily: it is skipped when it reaches the
// heap root, so Cancel itself is O(1).
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
	if s.dead >= compactMinDead && s.dead > (len(s.queue)+s.laned)/2 {
		s.compact()
	}
	return true
}

// retire frees a slot: the callback is released, the occupying sequence
// cleared (so queued entries stop matching) and the generation bumped
// (so outstanding EventIDs stop matching).
func (s *Scheduler) retire(idx uint32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.timer = nil
	sl.seq = 0
	sl.gen++
	s.free = append(s.free, idx)
}

// Pending returns the number of events waiting to run. Cancelled events
// are never counted, even while their queued entries await lazy
// discard, and compaction does not change the count.
func (s *Scheduler) Pending() int { return s.live }

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool { return s.stepUntil(maxTime) }

// stepUntil executes the earliest pending event if its timestamp is no
// later than deadline, discarding cancelled debris that surfaces at the
// heap root on the way. It reports whether an event was executed.
func (s *Scheduler) stepUntil(deadline Time) bool {
	for len(s.queue) > 0 {
		e := s.queue[0]
		sl := &s.slots[e.slot]
		if sl.seq != e.seq {
			s.popRoot(e)
			s.dead--
			continue
		}
		if e.at > deadline {
			return false
		}
		fn, t := sl.fn, sl.timer
		s.popRoot(e)
		s.retire(e.slot)
		s.live--
		s.now = e.at
		s.Processed++
		if t != nil {
			t.fire()
		} else {
			fn()
		}
		return true
	}
	return false
}

// popRoot removes the heap root e. A lane head is replaced by its
// lane's next entry in one sift; an emptied lane goes idle.
func (s *Scheduler) popRoot(e event) {
	if e.lane != 0 {
		l := &s.lanes[e.lane-1]
		if l.n > 0 {
			s.laned--
			s.siftDown(0, l.take())
			return
		}
		l.active = false
	}
	s.pop()
}

// CountFolded credits n events to Processed that the running callback
// executed inline instead of scheduling. A layer that folds several
// same-instant events into one callback (the radio completes every
// reception of a frame inside the transmission's single completion
// event) calls it so Processed still counts each of them.
func (s *Scheduler) CountFolded(n int) { s.Processed += uint64(n) }

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
	for !s.stopped && s.stepUntil(deadline) {
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

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

// compact filters cancelled entries out of the lanes and the heap in
// place and re-heapifies. A cancelled lane head is replaced by its
// lane's next live entry. Sift-downs only reorder by (at, seq)
// comparisons, so the surviving execution order is unchanged.
func (s *Scheduler) compact() {
	live := func(e event) bool { return s.slots[e.slot].seq == e.seq }
	s.laned = 0
	for i := range s.lanes {
		l := &s.lanes[i]
		kept := 0
		for k := 0; k < l.n; k++ {
			if e := l.buf[(l.head+k)&(len(l.buf)-1)]; live(e) {
				l.buf[(l.head+kept)&(len(l.buf)-1)] = e
				kept++
			}
		}
		l.n = kept
		s.laned += kept
	}
	kept := s.queue[:0]
	for _, e := range s.queue {
		if live(e) {
			kept = append(kept, e)
			continue
		}
		if e.lane == 0 {
			continue
		}
		if l := &s.lanes[e.lane-1]; l.n > 0 {
			kept = append(kept, l.take())
			s.laned--
		} else {
			l.active = false
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
