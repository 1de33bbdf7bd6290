package energy

import (
	"fmt"
	"slices"
	"time"

	"bulktx/internal/sim"
	"bulktx/internal/units"
)

// State is a radio power state.
type State int

// Radio power states. Off draws nothing; WakingUp models the off->on
// transition (charged as fixed energy, with idle draw over the latency
// accounted separately by the radio layer's timing).
const (
	Off State = iota + 1
	WakingUp
	Idle
	Rx
	Tx
	// Overhear is a ledger-only pseudo-state: fixed charges for
	// receptions not addressed to the node land here so evaluation models
	// can separate overhearing cost from useful reception (the paper's
	// Sensor-ideal vs Sensor-header distinction).
	Overhear
)

// numStates is the number of power states; ledgers are arrays of this
// length indexed by State-1.
const numStates = int(Overhear)

// allStates is the canonical state order (see States).
var allStates = [numStates]State{Off, WakingUp, Idle, Rx, Tx, Overhear}

// States lists every power state in a fixed canonical order. Callers
// aggregating per-state ledgers (e.g. summing float energies across
// states) must iterate in this order, not in map order, so that totals
// are bit-identical across runs. The slice is fresh on every call.
func States() []State {
	return slices.Clone(allStates[:])
}

// valid reports whether s is one of the declared power states.
func (s State) valid() bool { return s >= Off && s <= Overhear }

// mustValid panics on an undeclared state: only a caller bug can pass
// one, and the ledgers have no slot for it.
func mustValid(s State) {
	if !s.valid() {
		panic(fmt.Sprintf("energy: invalid power state %v", s))
	}
}

// String returns the state name.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case WakingUp:
		return "waking-up"
	case Idle:
		return "idle"
	case Rx:
		return "rx"
	case Tx:
		return "tx"
	case Overhear:
		return "overhear"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Meter integrates a single radio's energy use over time. The radio layer
// drives it with state transitions; the meter charges the profile's power
// draw for the residency in each state and fixed wake-up energy on
// Off -> WakingUp transitions.
//
// Meters are owned by a single simulation goroutine and are not
// concurrency-safe, matching the scheduler's execution model.
type Meter struct {
	profile Profile
	// clock is the scheduler's virtual clock (sim.Scheduler.Clock),
	// read in place on every settle rather than through a Now call.
	clock *sim.Time

	state State
	since sim.Time
	total units.Energy
	// The per-state ledgers are indexed by State-1.
	byState [numStates]units.Energy
	inState [numStates]time.Duration
	wakeups int

	// draws is the power charged for residency in each state, indexed
	// by State-1: the profile's draw (see draw), or zero for a state
	// marked free. Charging policy: the paper's "Sensor-ideal" model
	// charges only tx/rx on sensor radios (idle/overhear free).
	draws [numStates]units.Power

	// onTransition, when set, observes every effective state change.
	// Nil costs a single pointer check per Transition — the trace
	// subsystem's zero-cost-when-disabled contract rests on it.
	onTransition func(from, to State)
}

// NewMeter returns a meter for the given profile starting in state Off at
// the clock's current time. The meter reads *clock whenever it settles;
// a simulation passes its scheduler's Clock.
func NewMeter(p Profile, clock *sim.Time) *Meter {
	m := &Meter{
		profile: p,
		clock:   clock,
		state:   Off,
		since:   *clock,
	}
	for i, s := range allStates {
		m.draws[i] = m.draw(s)
	}
	return m
}

// SetFreeState marks a state as drawing no energy (used by the
// Sensor-ideal evaluation model which ignores sensor idling costs), or
// restores its profile draw. Residency up to now is charged at the old
// draw. It panics if s is not a declared state.
func (m *Meter) SetFreeState(s State, free bool) {
	mustValid(s)
	m.settle()
	d := m.draw(s)
	if free {
		d = 0
	}
	m.draws[s-1] = d
}

// Profile returns the radio profile the meter charges against.
func (m *Meter) Profile() Profile { return m.profile }

// State returns the current radio state.
func (m *Meter) State() State { return m.state }

// SetOnTransition registers an observer fired on every effective state
// change (from != to), after the previous state's residency has been
// charged. Nil disables observation; a disabled meter costs only a nil
// check on the transition path.
func (m *Meter) SetOnTransition(fn func(from, to State)) { m.onTransition = fn }

// Transition moves the radio to state s, charging for the residency in
// the previous state. Transitioning Off -> WakingUp charges the profile's
// fixed wake-up energy. It panics if s is not a declared state.
func (m *Meter) Transition(s State) {
	mustValid(s)
	m.settle()
	if m.state == Off && s == WakingUp {
		m.addEnergy(WakingUp, m.profile.Wakeup)
		m.wakeups++
	}
	from := m.state
	m.state = s
	if m.onTransition != nil && s != from {
		m.onTransition(from, s)
	}
}

// ChargeEnergy adds a fixed energy amount attributed to state s; used for
// overhearing charges and externally computed costs. It panics if s is
// not a declared state.
func (m *Meter) ChargeEnergy(s State, e units.Energy) {
	mustValid(s)
	m.settle()
	m.addEnergy(s, e)
}

// Total returns the total energy consumed up to the clock's current time.
func (m *Meter) Total() units.Energy {
	m.settle()
	return m.total
}

// EnergyIn returns the energy charged to state s up to now (zero for an
// undeclared state).
func (m *Meter) EnergyIn(s State) units.Energy {
	m.settle()
	if !s.valid() {
		return 0
	}
	return m.byState[s-1]
}

// TimeIn returns the cumulative residency in state s up to now (zero for
// an undeclared state, which no meter can enter).
func (m *Meter) TimeIn(s State) time.Duration {
	m.settle()
	if !s.valid() {
		return 0
	}
	return m.inState[s-1]
}

// StateSnapshot is one power state's accumulated ledger entry: the
// energy charged to the state and the time spent in it.
type StateSnapshot struct {
	// State is the power state the entry describes.
	State State
	// Energy is the total energy charged to the state so far.
	Energy units.Energy
	// Time is the cumulative residency in the state so far (zero for
	// ledger-only pseudo-states such as Overhear).
	Time time.Duration
}

// Snapshot settles the meter and returns its per-state ledger in
// canonical state order (see States), including only states that have
// accumulated energy or residency. The fixed order makes snapshots
// safe to aggregate with float arithmetic: summing entries in slice
// order is bit-stable across runs, unlike iterating a map.
func (m *Meter) Snapshot() []StateSnapshot {
	m.settle()
	out := make([]StateSnapshot, 0, numStates)
	for i, s := range allStates {
		e, t := m.byState[i], m.inState[i]
		if e == 0 && t == 0 {
			continue
		}
		out = append(out, StateSnapshot{State: s, Energy: e, Time: t})
	}
	return out
}

// Wakeups returns the number of Off -> WakingUp transitions.
func (m *Meter) Wakeups() int { return m.wakeups }

// settle charges the current state's power draw for the time elapsed
// since the last settlement.
func (m *Meter) settle() {
	now := *m.clock
	if now < m.since {
		// Clock regression would corrupt the ledger; the scheduler never
		// moves backwards, so treat it as "no time elapsed".
		m.since = now
		return
	}
	d := now - m.since
	m.since = now
	if d == 0 {
		return
	}
	m.inState[m.state-1] += d
	m.addEnergy(m.state, m.draws[m.state-1].Over(d))
}

func (m *Meter) addEnergy(s State, e units.Energy) {
	if e <= 0 {
		return
	}
	m.total += e
	m.byState[s-1] += e
}

// draw maps a state to the profile's power draw (what draws holds for
// a state not marked free).
func (m *Meter) draw(s State) units.Power {
	switch s {
	case Off:
		return 0
	case WakingUp:
		// The fixed wake-up energy covers the transition; the residency
		// itself is additionally charged at idle draw, modelling the
		// radio settling in an active (but not yet useful) state.
		return m.profile.Idle
	case Idle:
		return m.profile.Idle
	case Rx:
		return m.profile.Rx
	case Tx:
		return m.profile.Tx
	default:
		return 0
	}
}
