package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bulktx/internal/sim"
	"bulktx/internal/units"
)

func TestTable1MatchesPaper(t *testing.T) {
	tests := []struct {
		name       string
		profile    Profile
		rate       units.BitRate
		txMW, rxMW float64
		idleMW     float64
		wakeupMJ   float64
	}{
		{"Cabletron", Cabletron(), 2 * units.Mbps, 1400, 1000, 830, 1.328},
		{"Lucent (2Mbps)", Lucent2(), 2 * units.Mbps, 1327.2, 966.9, 843.7, 0.6},
		{"Lucent (11Mbps)", Lucent11(), 11 * units.Mbps, 1346.1, 900.6, 739.4, 0.6},
		{"Mica", Mica(), 40 * units.Kbps, 81, 30, 30, 0},
		{"Mica2", Mica2(), 38.4 * units.Kbps, 42, 29, 29, 0},
		{"Micaz", Micaz(), 250 * units.Kbps, 51, 59.1, 59.1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := tt.profile
			if p.Name != tt.name {
				t.Errorf("Name = %q, want %q", p.Name, tt.name)
			}
			if p.Rate != tt.rate {
				t.Errorf("Rate = %v, want %v", p.Rate, tt.rate)
			}
			if math.Abs(p.Tx.Milliwatts()-tt.txMW) > 1e-9 {
				t.Errorf("Tx = %v mW, want %v", p.Tx.Milliwatts(), tt.txMW)
			}
			if math.Abs(p.Rx.Milliwatts()-tt.rxMW) > 1e-9 {
				t.Errorf("Rx = %v mW, want %v", p.Rx.Milliwatts(), tt.rxMW)
			}
			if math.Abs(p.Idle.Milliwatts()-tt.idleMW) > 1e-9 {
				t.Errorf("Idle = %v mW, want %v", p.Idle.Milliwatts(), tt.idleMW)
			}
			if math.Abs(p.Wakeup.Millijoules()-tt.wakeupMJ) > 1e-9 {
				t.Errorf("Wakeup = %v mJ, want %v", p.Wakeup.Millijoules(), tt.wakeupMJ)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("Validate() = %v", err)
			}
		})
	}
}

func TestTable1Partition(t *testing.T) {
	if got := len(Table1()); got != 6 {
		t.Fatalf("Table1 has %d rows, want 6", got)
	}
	if got := len(HighPowerProfiles()); got != 3 {
		t.Errorf("HighPowerProfiles() = %d, want 3", got)
	}
	if got := len(LowPowerProfiles()); got != 3 {
		t.Errorf("LowPowerProfiles() = %d, want 3", got)
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nonexistent"); err == nil {
		t.Error("ProfileByName(nonexistent) did not error")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := Micaz()
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"bad class", func(p *Profile) { p.Class = 0 }},
		{"zero rate", func(p *Profile) { p.Rate = 0 }},
		{"zero tx", func(p *Profile) { p.Tx = 0 }},
		{"negative idle", func(p *Profile) { p.Idle = -1 }},
		{"negative wakeup", func(p *Profile) { p.Wakeup = -1 }},
		{"zero range", func(p *Profile) { p.Range = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := good
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted an invalid profile")
			}
		})
	}
}

func TestEnergyPerBit(t *testing.T) {
	// Micaz: (51 + 59.1) mW at 250 Kbps = 0.1101 / 250000 J/bit.
	p := Micaz()
	want := (0.051 + 0.0591) / 250000
	if got := p.LinkEnergyPerBit().Joules(); math.Abs(got-want) > 1e-15 {
		t.Errorf("LinkEnergyPerBit = %v, want %v", got, want)
	}
	wantTx := 0.051 / 250000
	if got := p.TxEnergyPerBit().Joules(); math.Abs(got-wantTx) > 1e-15 {
		t.Errorf("TxEnergyPerBit = %v, want %v", got, wantTx)
	}
}

func TestHighPowerBeatsLowPowerPerBit(t *testing.T) {
	// The premise of the paper: 802.11 radios cost less energy per bit in
	// active transfer than Mica-class radios (Lucent 11 vs all; and all
	// high-power vs Mica/Mica2).
	l11 := Lucent11().LinkEnergyPerBit()
	for _, lp := range LowPowerProfiles() {
		if l11 >= lp.LinkEnergyPerBit() {
			t.Errorf("Lucent11 per-bit %v not below %s per-bit %v",
				l11, lp.Name, lp.LinkEnergyPerBit())
		}
	}
	// ... except Micaz beats the 2 Mbps radios (the paper's infeasible
	// single-hop combinations).
	micaz := Micaz().LinkEnergyPerBit()
	for _, hp := range []Profile{Cabletron(), Lucent2()} {
		if hp.LinkEnergyPerBit() <= micaz {
			t.Errorf("%s per-bit %v unexpectedly below Micaz %v",
				hp.Name, hp.LinkEnergyPerBit(), micaz)
		}
	}
}

// meterClock is a manually advanced clock for meter tests.
type meterClock struct{ now sim.Time }

func (c *meterClock) time() sim.Time { return c.now }

func TestMeterChargesStateResidency(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Cabletron(), &clk.now)

	m.Transition(WakingUp) // charges 1.328 mJ fixed
	clk.now += 2 * time.Millisecond
	m.Transition(Idle) // waking-up residency at idle draw: 0.830 * 0.002
	clk.now += 100 * time.Millisecond
	m.Transition(Tx) // idle residency: 0.830 * 0.1
	clk.now += 10 * time.Millisecond
	m.Transition(Off) // tx residency: 1.4 * 0.01

	want := 1.328e-3 + 0.830*0.002 + 0.830*0.100 + 1.4*0.010
	if got := m.Total().Joules(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Total = %v J, want %v J", got, want)
	}
	if m.Wakeups() != 1 {
		t.Errorf("Wakeups = %d, want 1", m.Wakeups())
	}
	clk.now += time.Hour // off draws nothing
	if got := m.Total().Joules(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Total after off hour = %v J, want %v J", got, want)
	}
}

func TestMeterByStateBreakdown(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Micaz(), &clk.now)
	m.Transition(Tx)
	clk.now += time.Second
	m.Transition(Rx)
	clk.now += 2 * time.Second
	m.Transition(Off)

	if got, want := m.EnergyIn(Tx).Joules(), 0.051; math.Abs(got-want) > 1e-12 {
		t.Errorf("Tx energy = %v, want %v", got, want)
	}
	if got, want := m.EnergyIn(Rx).Joules(), 2*0.0591; math.Abs(got-want) > 1e-12 {
		t.Errorf("Rx energy = %v, want %v", got, want)
	}
	if got := m.TimeIn(Tx); got != time.Second {
		t.Errorf("TimeIn(Tx) = %v, want 1s", got)
	}
	if got := m.TimeIn(Rx); got != 2*time.Second {
		t.Errorf("TimeIn(Rx) = %v, want 2s", got)
	}
	for _, s := range []State{Off, Idle, State(0), State(99)} {
		if got := m.EnergyIn(s); got != 0 {
			t.Errorf("EnergyIn(%v) = %v, want 0 (never charged or undeclared)", s, got)
		}
	}
}

func TestMeterFreeState(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Micaz(), &clk.now)
	m.SetFreeState(Idle, true)
	m.Transition(Idle)
	clk.now += time.Hour
	if got := m.Total(); got != 0 {
		t.Errorf("free idle accrued %v", got)
	}
	if got := m.TimeIn(Idle); got != time.Hour {
		t.Errorf("TimeIn(Idle) = %v, want 1h (time still tracked)", got)
	}
	m.SetFreeState(Idle, false)
	clk.now += time.Second
	if got, want := m.Total().Joules(), 0.0591; math.Abs(got-want) > 1e-12 {
		t.Errorf("Total after unfree = %v, want %v", got, want)
	}
}

// TestMeterSetFreeStateMidResidency toggles a state's charge while the
// meter sits in it, with no read in between: the residency before each
// toggle is charged at the old draw and the residency after it at the
// new one.
func TestMeterSetFreeStateMidResidency(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Micaz(), &clk.now)
	m.Transition(Idle)
	clk.now += 2 * time.Second
	m.SetFreeState(Idle, true) // the 2 s so far cost the idle draw
	clk.now += time.Hour
	m.SetFreeState(Idle, false) // the free hour costs nothing
	clk.now += time.Second
	idle := Micaz().Idle
	if got, want := m.Total(), idle.Over(2*time.Second)+idle.Over(time.Second); !sameBits(got, want) {
		t.Errorf("Total = %v, want %v (3 s of idle draw)", got, want)
	}
	if got, want := m.TimeIn(Idle), time.Hour+3*time.Second; got != want {
		t.Errorf("TimeIn(Idle) = %v, want %v", got, want)
	}
}

func TestMeterChargeEnergy(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Micaz(), &clk.now)
	m.ChargeEnergy(Rx, 5*units.Millijoule)
	m.ChargeEnergy(Rx, -1) // ignored
	if got, want := m.Total().Joules(), 5e-3; math.Abs(got-want) > 1e-15 {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestMeterNoWakeupChargeFromIdle(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Lucent11(), &clk.now)
	m.Transition(Idle)
	m.Transition(WakingUp) // not from Off: no fixed charge
	if m.Wakeups() != 0 {
		t.Errorf("Wakeups = %d, want 0", m.Wakeups())
	}
	if m.Total() != 0 {
		t.Errorf("Total = %v, want 0", m.Total())
	}
}

// Property: total equals the sum of the per-state breakdown for any
// transition sequence.
func TestMeterTotalEqualsBreakdownSum(t *testing.T) {
	states := []State{Off, WakingUp, Idle, Rx, Tx}
	f := func(steps []uint8) bool {
		clk := &meterClock{}
		m := NewMeter(Cabletron(), &clk.now)
		for _, s := range steps {
			m.Transition(states[int(s)%len(states)])
			clk.now += time.Duration(s%50) * time.Millisecond
		}
		var sum units.Energy
		for _, s := range States() {
			sum += m.EnergyIn(s)
		}
		return math.Abs(sum.Joules()-m.Total().Joules()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy is monotone non-decreasing in time.
func TestMeterMonotone(t *testing.T) {
	states := []State{Off, WakingUp, Idle, Rx, Tx}
	f := func(steps []uint8) bool {
		clk := &meterClock{}
		m := NewMeter(Lucent2(), &clk.now)
		prev := m.Total()
		for _, s := range steps {
			m.Transition(states[int(s)%len(states)])
			clk.now += time.Duration(s%20) * time.Millisecond
			cur := m.Total()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{Off, "off"}, {WakingUp, "waking-up"}, {Idle, "idle"},
		{Rx, "rx"}, {Tx, "tx"}, {State(99), "State(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("State(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
	if got := LowPower.String(); got != "low-power" {
		t.Errorf("LowPower.String() = %q", got)
	}
	if got := HighPower.String(); got != "high-power" {
		t.Errorf("HighPower.String() = %q", got)
	}
	if got := Class(9).String(); got != "Class(9)" {
		t.Errorf("Class(9).String() = %q", got)
	}
}

func TestMeterSnapshotCanonicalOrder(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Cabletron(), &clk.now)

	m.Transition(WakingUp)
	clk.now += 2 * time.Millisecond
	m.Transition(Tx)
	clk.now += 10 * time.Millisecond
	m.Transition(Rx)
	clk.now += 5 * time.Millisecond
	m.Transition(Idle)
	clk.now += 100 * time.Millisecond
	m.ChargeEnergy(Overhear, 1e-3)

	snap := m.Snapshot()
	// Entries follow States() order and only active states appear (the
	// meter never idled in Off with accumulated time: it started there
	// with zero residency).
	var prev int = -1
	order := States()
	index := make(map[State]int, len(order))
	for i, s := range order {
		index[s] = i
	}
	var sum units.Energy
	for _, e := range snap {
		i, ok := index[e.State]
		if !ok {
			t.Fatalf("snapshot carries unknown state %v", e.State)
		}
		if i <= prev {
			t.Fatalf("snapshot out of canonical order: %+v", snap)
		}
		prev = i
		if e.Energy == 0 && e.Time == 0 {
			t.Errorf("snapshot carries empty entry %+v", e)
		}
		sum += e.Energy
	}
	if got := m.Total(); sum != got {
		t.Errorf("snapshot energies sum to %v, Total() = %v", sum, got)
	}
	// The Overhear ledger entry has energy but no residency.
	last := snap[len(snap)-1]
	if last.State != Overhear || last.Time != 0 || last.Energy != 1e-3 {
		t.Errorf("overhear entry = %+v", last)
	}
}

func TestMeterOnTransitionFiresOnChangeOnly(t *testing.T) {
	clk := &meterClock{}
	m := NewMeter(Micaz(), &clk.now)
	type change struct{ from, to State }
	var seen []change
	m.SetOnTransition(func(from, to State) { seen = append(seen, change{from, to}) })

	m.Transition(Idle)
	m.Transition(Idle) // same state: residency settles, no event
	clk.now += time.Millisecond
	m.Transition(Idle) // still no event
	m.Transition(Tx)
	m.Transition(Off)

	want := []change{{Off, Idle}, {Idle, Tx}, {Tx, Off}}
	if len(seen) != len(want) {
		t.Fatalf("observed %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("observed %v, want %v", seen, want)
		}
	}

	// The observer sees the meter already in its new state, so probes
	// reading State() observe a consistent machine.
	m.SetOnTransition(func(from, to State) {
		if m.State() != to {
			t.Errorf("observer saw stale state %v during %v->%v", m.State(), from, to)
		}
	})
	m.Transition(Rx)
}
