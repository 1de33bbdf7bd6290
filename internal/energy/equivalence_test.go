package energy

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bulktx/internal/sim"
	"bulktx/internal/units"
)

// refMeter is the map-ledger meter the array-indexed Meter replaced,
// kept as a reference model: same settle points, same float operations
// in the same order, ledgers keyed by State in maps.
type refMeter struct {
	profile    Profile
	clock      func() sim.Time
	state      State
	since      sim.Time
	total      units.Energy
	byState    map[State]units.Energy
	inState    map[State]time.Duration
	freeStates map[State]bool
	wakeups    int
}

func newRefMeter(p Profile, clock func() sim.Time) *refMeter {
	return &refMeter{
		profile:    p,
		clock:      clock,
		state:      Off,
		since:      clock(),
		byState:    make(map[State]units.Energy),
		inState:    make(map[State]time.Duration),
		freeStates: make(map[State]bool),
	}
}

func (m *refMeter) SetFreeState(s State, free bool) {
	m.settle()
	m.freeStates[s] = free
}

func (m *refMeter) Transition(s State) {
	m.settle()
	if m.state == Off && s == WakingUp {
		m.addEnergy(WakingUp, m.profile.Wakeup)
		m.wakeups++
	}
	m.state = s
}

func (m *refMeter) ChargeEnergy(s State, e units.Energy) {
	m.settle()
	m.addEnergy(s, e)
}

func (m *refMeter) Total() units.Energy {
	m.settle()
	return m.total
}

func (m *refMeter) ByState() map[State]units.Energy {
	m.settle()
	out := make(map[State]units.Energy, len(m.byState))
	for k, v := range m.byState {
		out[k] = v
	}
	return out
}

func (m *refMeter) TimeIn(s State) time.Duration {
	m.settle()
	return m.inState[s]
}

func (m *refMeter) Snapshot() []StateSnapshot {
	m.settle()
	out := make([]StateSnapshot, 0, len(m.byState))
	for _, s := range States() {
		e, t := m.byState[s], m.inState[s]
		if e == 0 && t == 0 {
			continue
		}
		out = append(out, StateSnapshot{State: s, Energy: e, Time: t})
	}
	return out
}

func (m *refMeter) settle() {
	now := m.clock()
	if now < m.since {
		m.since = now
		return
	}
	d := now - m.since
	m.since = now
	if d == 0 {
		return
	}
	m.inState[m.state] += d
	if m.freeStates[m.state] {
		return
	}
	m.addEnergy(m.state, m.draw(m.state).Over(d))
}

func (m *refMeter) draw(s State) units.Power {
	switch s {
	case WakingUp, Idle:
		return m.profile.Idle
	case Rx:
		return m.profile.Rx
	case Tx:
		return m.profile.Tx
	default:
		return 0
	}
}

func (m *refMeter) addEnergy(s State, e units.Energy) {
	if e <= 0 {
		return
	}
	m.total += e
	m.byState[s] += e
}

// sameBits compares energies bit for bit.
func sameBits(a, b units.Energy) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestMeterEquivalence drives the array-ledger Meter and the map-ledger
// reference with identical random operation streams — transitions,
// fixed charges, free-state toggles and clock moves that may be zero or
// backwards, which the Meter reads through its clock pointer and the
// reference through a func — and requires bit-identical observations. Even trials
// observe after every step. Every observation settles both meters, so
// odd trials observe after about one step in eight and at the end,
// letting residency accumulate across transitions: a meter that
// skipped a same-state settle would round differently there.
func TestMeterEquivalence(t *testing.T) {
	all := States()
	probes := append(States(), State(0), Overhear+1) // undeclared states read zero
	charges := []units.Energy{0, -1, 1e-9, 5 * units.Millijoule, 0.1, 1.0 / 3}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := Table1()[trial%len(Table1())]
		clk := &meterClock{now: time.Duration(rng.Intn(1000)) * time.Millisecond}
		got, want := NewMeter(p, &clk.now), newRefMeter(p, clk.time)
		const steps = 300
		for step := 0; step < steps; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				s := all[rng.Intn(len(all))]
				op = "transition " + s.String()
				got.Transition(s)
				want.Transition(s)
			case r < 5:
				s, e := all[rng.Intn(len(all))], charges[rng.Intn(len(charges))]
				op = "charge " + s.String()
				got.ChargeEnergy(s, e)
				want.ChargeEnergy(s, e)
			case r < 6:
				s, free := all[rng.Intn(len(all))], rng.Intn(2) == 0
				op = "free " + s.String()
				got.SetFreeState(s, free)
				want.SetFreeState(s, free)
			default:
				switch d := rng.Intn(8); d {
				case 0:
					op = "clock +0"
				case 1:
					op = "clock back"
					clk.now -= time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
				default:
					op = "clock forward"
					clk.now += time.Duration(rng.Int63n(int64(d) * int64(20*time.Millisecond)))
				}
			}

			if trial%2 == 1 && rng.Intn(8) != 0 && step < steps-1 {
				continue
			}
			where := func() string { return fmt.Sprintf("trial %d (%s) step %d (%s)", trial, p.Name, step, op) }
			if g, w := got.Total(), want.Total(); !sameBits(g, w) {
				t.Fatalf("%s: Total = %v, reference %v", where(), g, w)
			}
			wb := want.ByState()
			for _, s := range probes {
				if g, w := got.EnergyIn(s), wb[s]; !sameBits(g, w) {
					t.Fatalf("%s: EnergyIn(%v) = %v, reference %v", where(), s, g, w)
				}
			}
			for _, s := range probes {
				if g, w := got.TimeIn(s), want.TimeIn(s); g != w {
					t.Fatalf("%s: TimeIn(%v) = %v, reference %v", where(), s, g, w)
				}
			}
			gs, ws := got.Snapshot(), want.Snapshot()
			if len(gs) != len(ws) {
				t.Fatalf("%s: Snapshot = %+v, reference %+v", where(), gs, ws)
			}
			for i := range ws {
				if gs[i].State != ws[i].State || gs[i].Time != ws[i].Time || !sameBits(gs[i].Energy, ws[i].Energy) {
					t.Fatalf("%s: Snapshot = %+v, reference %+v", where(), gs, ws)
				}
			}
			if g, w := got.Wakeups(), want.wakeups; g != w {
				t.Fatalf("%s: Wakeups = %d, reference %d", where(), g, w)
			}
			if got.State() != want.state {
				t.Fatalf("%s: State = %v, reference %v", where(), got.State(), want.state)
			}
		}
	}
}

// TestMeterRejectsInvalidState checks that every ledger mutator panics
// with a message naming an undeclared state instead of indexing out of
// range.
func TestMeterRejectsInvalidState(t *testing.T) {
	calls := map[string]func(m *Meter, s State){
		"Transition":   func(m *Meter, s State) { m.Transition(s) },
		"ChargeEnergy": func(m *Meter, s State) { m.ChargeEnergy(s, units.Millijoule) },
		"SetFreeState": func(m *Meter, s State) { m.SetFreeState(s, true) },
	}
	for name, call := range calls {
		for _, s := range []State{State(0), State(-3), Overhear + 1} {
			func() {
				defer func() {
					r := recover()
					msg, _ := r.(string)
					if r == nil || !strings.Contains(msg, s.String()) {
						t.Errorf("%s(%v) recovered %v, want a panic naming %v", name, s, r, s)
					}
				}()
				call(NewMeter(Micaz(), new(sim.Time)), s)
			}()
		}
	}
}
