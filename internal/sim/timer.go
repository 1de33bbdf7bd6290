package sim

import "time"

// Timer is a restartable one-shot timer bound to a Scheduler. Protocol
// state machines (BCP wake-up ack timeouts, receiver data timeouts, MAC
// backoffs) use it to express "fire once at t unless reset or stopped".
//
// A Timer is designed to be embedded by value in protocol structs: call
// Init once, then Reset/Stop freely — both are allocation-free, because
// the scheduler's event slot holds the *Timer itself and cancellation is
// lazy (an O(1) handle retire; see the package comment). An armed
// Timer must therefore not move: embed it in a struct that is only
// used through a pointer.
//
// The zero Timer is not usable; initialise one with Init (or NewTimer).
type Timer struct {
	sched *Scheduler
	h     Handler
	id    EventID
	armed bool
}

// Handler takes a timer's expiry. An owner of several timers implements
// it once and tells them apart by the *Timer it is passed. Binding a
// timer to its owner this way allocates nothing (a pointer fits in an
// interface as is), where binding a method value would allocate a
// closure per timer.
type Handler interface {
	OnTimer(t *Timer)
}

// Func adapts a plain function to a Handler.
type Func func()

// OnTimer calls f.
func (f Func) OnTimer(*Timer) { f() }

// Init binds the timer to a scheduler and expiry handler. It must be
// called exactly once, before any Reset.
func (t *Timer) Init(sched *Scheduler, h Handler) {
	t.sched = sched
	t.h = h
}

// NewTimer returns a heap-allocated timer that invokes fn on expiry.
// Prefer embedding a Timer by value and calling Init.
func NewTimer(sched *Scheduler, fn func()) *Timer {
	t := &Timer{}
	t.Init(sched, Func(fn))
	return t
}

// Reset (re)arms the timer to fire d from now, cancelling any previous
// schedule.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	t.armed = true
	t.id = t.sched.after(d, nil, t)
}

// Stop disarms the timer. It reports whether the timer was armed.
func (t *Timer) Stop() bool {
	if !t.armed {
		return false
	}
	t.armed = false
	return t.sched.Cancel(t.id)
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

func (t *Timer) fire() {
	t.armed = false
	t.h.OnTimer(t)
}
