package radio

import (
	"errors"
	"math"
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// testNet builds a channel over a line of n nodes spaced 30 m apart with
// the Micaz profile (range 40 m: each node reaches only direct line
// neighbours).
func testNet(t *testing.T, n int, cfgMut func(*Config)) (*sim.Scheduler, *Channel, []*Transceiver) {
	t.Helper()
	sched := sim.NewScheduler(42)
	layout, err := topo.Line(n, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:       "sensor",
		Profile:    energy.Micaz(),
		HeaderSize: 11,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	ch, err := NewChannel(sched, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*Transceiver, n)
	for i := 0; i < n; i++ {
		xs[i], err = ch.Attach(NodeID(i), OverhearFull, true)
		if err != nil {
			t.Fatal(err)
		}
	}
	return sched, ch, xs
}

func TestUnicastDelivery(t *testing.T) {
	sched, ch, xs := testNet(t, 2, nil)
	var got []Frame
	xs[1].SetOnReceive(func(f Frame) { got = append(got, f) })
	txDone := false
	xs[0].SetOnTxDone(func(Frame) { txDone = true })

	f := Frame{Kind: KindData, Dst: 1, Size: 43, Seq: 7, Payload: "hello"}
	if err := xs[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if len(got) != 1 {
		t.Fatalf("received %d frames, want 1", len(got))
	}
	if got[0].Payload != "hello" || got[0].Seq != 7 || got[0].Src != 0 {
		t.Errorf("received %+v", got[0])
	}
	if !txDone {
		t.Error("onTxDone not fired")
	}
	if st := ch.Stats(); st.Transmissions != 1 || st.Deliveries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeliveryTiming(t *testing.T) {
	sched, ch, xs := testNet(t, 2, nil)
	var at sim.Time
	xs[1].SetOnReceive(func(Frame) { at = sched.Now() })
	f := Frame{Kind: KindData, Dst: 1, Size: 43}
	if err := xs[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	want := ch.Airtime(43)
	if at != want {
		t.Errorf("delivered at %v, want airtime %v", at, want)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	// 30 m spacing, 40 m range: node 0 cannot reach node 2 (60 m).
	sched, _, xs := testNet(t, 3, nil)
	heard := false
	xs[2].SetOnReceive(func(Frame) { heard = true })
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 2, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if heard {
		t.Error("node 2 heard a frame from 60 m away with 40 m range")
	}
}

func TestBroadcast(t *testing.T) {
	sched, _, xs := testNet(t, 3, nil)
	heard := make([]bool, 3)
	for i := 1; i < 3; i++ {
		i := i
		xs[i].SetOnReceive(func(Frame) { heard[i] = true })
	}
	// Node 1 is in range of both 0 and 2.
	if err := xs[1].Transmit(Frame{Kind: KindControl, Dst: Broadcast, Size: 27}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if heard[1] {
		t.Error("transmitter heard its own frame")
	}
	if !heard[2] {
		t.Error("in-range node 2 missed broadcast")
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	// Nodes 0 and 2 both transmit to node 1 simultaneously.
	sched, ch, xs := testNet(t, 3, nil)
	heard := 0
	xs[1].SetOnReceive(func(Frame) { heard++ })
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	if err := xs[2].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if heard != 0 {
		t.Errorf("received %d frames from a collision, want 0", heard)
	}
	if st := ch.Stats(); st.Collisions != 2 {
		t.Errorf("Collisions = %d, want 2", st.Collisions)
	}
}

func TestPartialOverlapCollision(t *testing.T) {
	sched, _, xs := testNet(t, 3, nil)
	heard := 0
	xs[1].SetOnReceive(func(Frame) { heard++ })
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 430}); err != nil {
		t.Fatal(err)
	}
	// Second transmission starts mid-way through the first.
	sched.After(sim.Time(1*time.Millisecond), func() {
		if err := xs[2].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
			t.Fatal(err)
		}
	})
	sched.Run()
	if heard != 0 {
		t.Errorf("received %d frames from overlapping arrivals, want 0", heard)
	}
}

func TestHalfDuplex(t *testing.T) {
	// Node 1 transmitting cannot simultaneously receive from node 0.
	sched, _, xs := testNet(t, 2, nil)
	heard := 0
	xs[1].SetOnReceive(func(Frame) { heard++ })
	if err := xs[1].Transmit(Frame{Kind: KindData, Dst: 0, Size: 430}); err != nil {
		t.Fatal(err)
	}
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if heard != 0 {
		t.Errorf("half-duplex node received %d frames while transmitting", heard)
	}
}

func TestTransmitWhileTransmittingRejected(t *testing.T) {
	_, _, xs := testNet(t, 2, nil)
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 430}); err != nil {
		t.Fatal(err)
	}
	err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43})
	if !errors.Is(err, ErrRadioBusy) {
		t.Errorf("second Transmit = %v, want ErrRadioBusy", err)
	}
}

func TestPowerCycle(t *testing.T) {
	sched := sim.NewScheduler(1)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sched, Config{
		Name:          "wifi",
		Profile:       energy.Lucent11(),
		Range:         40,
		WakeupLatency: 2 * time.Millisecond,
		HeaderSize:    58,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Attach(0, OverhearFull, false)
	if err != nil {
		t.Fatal(err)
	}
	if x.On() {
		t.Fatal("high-power radio started on")
	}
	if err := x.Transmit(Frame{Kind: KindData, Dst: 1, Size: 100}); !errors.Is(err, ErrRadioOff) {
		t.Errorf("Transmit while off = %v, want ErrRadioOff", err)
	}

	woke := false
	x.SetOnWake(func() { woke = true })
	x.PowerOn()
	if x.On() {
		t.Error("radio usable before wake-up latency elapsed")
	}
	if !x.Waking() {
		t.Error("radio not in waking state")
	}
	sched.Run()
	if !x.On() || !woke {
		t.Error("radio did not complete wake-up")
	}
	// Energy: fixed wake-up charge plus idle draw during the latency.
	want := energy.Lucent11().Wakeup.Joules() +
		energy.Lucent11().Idle.Watts()*0.002
	if got := x.Meter().Total().Joules(); math.Abs(got-want) > 1e-12 {
		t.Errorf("wake-up energy = %v J, want %v J", got, want)
	}
	if err := x.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if x.On() {
		t.Error("radio still on after PowerOff")
	}
}

func TestPowerOnIdempotent(t *testing.T) {
	sched, _, xs := testNet(t, 2, nil)
	xs[0].PowerOn() // already on: no-op
	sched.Run()
	if got := xs[0].Meter().Wakeups(); got != 0 {
		t.Errorf("PowerOn on running radio charged %d wakeups", got)
	}
}

func TestPowerOffAbortsReception(t *testing.T) {
	sched, _, xs := testNet(t, 2, nil)
	heard := 0
	xs[1].SetOnReceive(func(Frame) { heard++ })
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 430}); err != nil {
		t.Fatal(err)
	}
	sched.After(sim.Time(500*time.Microsecond), func() {
		if err := xs[1].PowerOff(); err != nil {
			t.Errorf("PowerOff: %v", err)
		}
	})
	sched.Run()
	if heard != 0 {
		t.Errorf("powered-off node completed %d receptions", heard)
	}
}

func TestPowerOffDuringTxRejected(t *testing.T) {
	_, _, xs := testNet(t, 2, nil)
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 430}); err != nil {
		t.Fatal(err)
	}
	if err := xs[0].PowerOff(); !errors.Is(err, ErrRadioBusy) {
		t.Errorf("PowerOff mid-tx = %v, want ErrRadioBusy", err)
	}
}

func TestOffRadioHearsNothingAndSpendsNothing(t *testing.T) {
	sched := sim.NewScheduler(1)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sched, Config{
		Name: "wifi", Profile: energy.Cabletron(), Range: 250, HeaderSize: 58,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ch.Attach(0, OverhearFull, true)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := ch.Attach(1, OverhearFull, false) // off
	if err != nil {
		t.Fatal(err)
	}
	heard := false
	rx.SetOnReceive(func(Frame) { heard = true })
	if err := tx.Transmit(Frame{Kind: KindData, Dst: 1, Size: 1082}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if heard {
		t.Error("off radio received a frame")
	}
	if got := rx.Meter().Total(); got != 0 {
		t.Errorf("off radio consumed %v", got)
	}
}

func TestNoiseLoss(t *testing.T) {
	sched, ch, xs := testNet(t, 2, func(c *Config) { c.LossProb = 1.0 - 1e-12 })
	heard := 0
	xs[1].SetOnReceive(func(Frame) { heard++ })
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * sim.Time(10*time.Millisecond)
		if _, err := sched.Schedule(at, func() {
			if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 43}); err != nil {
				t.Errorf("Transmit: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if heard != 0 {
		t.Errorf("heard %d frames with loss probability ~1", heard)
	}
	if st := ch.Stats(); st.NoiseLosses != 10 {
		t.Errorf("NoiseLosses = %d, want 10", st.NoiseLosses)
	}
}

func TestTxEnergyAccounting(t *testing.T) {
	sched, ch, xs := testNet(t, 2, nil)
	size := units.ByteSize(43)
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: size}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	airtime := ch.Airtime(size)
	p := energy.Micaz()
	wantTx := p.Tx.Over(airtime).Joules()
	wantRx := p.Rx.Over(airtime).Joules()
	gotTx := xs[0].Meter().EnergyIn(energy.Tx).Joules()
	gotRx := xs[1].Meter().EnergyIn(energy.Rx).Joules()
	if math.Abs(gotTx-wantTx) > 1e-12 {
		t.Errorf("tx energy = %v, want %v", gotTx, wantTx)
	}
	if math.Abs(gotRx-wantRx) > 1e-12 {
		t.Errorf("rx energy = %v, want %v", gotRx, wantRx)
	}
}

func TestOverhearingPolicies(t *testing.T) {
	// Node 1 transmits to node 0; node 2 (in range of 1) overhears.
	run := func(policy OverhearPolicy) units.Energy {
		sched := sim.NewScheduler(1)
		layout, err := topo.Line(3, 30)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := NewChannel(sched, Config{
			Name: "sensor", Profile: energy.Micaz(), HeaderSize: 11,
		}, layout)
		if err != nil {
			t.Fatal(err)
		}
		var xs [3]*Transceiver
		for i := range xs {
			if xs[i], err = ch.Attach(NodeID(i), policy, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := xs[1].Transmit(Frame{Kind: KindData, Dst: 0, Size: 43}); err != nil {
			t.Fatal(err)
		}
		sched.Run()
		// Compare the overhearing-related ledgers: Micaz idles at its rx
		// draw, so the total would hide the differences behind idle cost.
		m := xs[2].Meter()
		return m.EnergyIn(energy.Rx) + m.EnergyIn(energy.Overhear)
	}

	free := run(OverhearFree)
	header := run(OverhearHeaderOnly)
	full := run(OverhearFull)
	if free != 0 {
		t.Errorf("OverhearFree charged %v rx energy", free)
	}
	p := energy.Micaz()
	wantHeader := p.Rx.Over(p.Rate.TimeFor(11)).Joules()
	if math.Abs(header.Joules()-wantHeader) > 1e-12 {
		t.Errorf("OverhearHeaderOnly charged %v, want %v J", header, wantHeader)
	}
	wantFull := p.Rx.Over(p.Rate.TimeFor(43)).Joules()
	if math.Abs(full.Joules()-wantFull) > 1e-12 {
		t.Errorf("OverhearFull charged %v, want %v J", full, wantFull)
	}
	if !(free < header && header < full) {
		t.Errorf("policy ordering violated: free=%v header=%v full=%v", free, header, full)
	}
}

func TestBusyCarrierSense(t *testing.T) {
	sched, _, xs := testNet(t, 2, nil)
	if xs[1].Busy() {
		t.Error("idle radio reports busy")
	}
	if err := xs[0].Transmit(Frame{Kind: KindData, Dst: 1, Size: 430}); err != nil {
		t.Fatal(err)
	}
	if !xs[0].Busy() {
		t.Error("transmitting radio reports idle")
	}
	// Receiver senses the carrier as soon as the arrival starts.
	stepped := false
	sched.After(0, func() {
		stepped = xs[1].Busy()
	})
	sched.Run()
	if !stepped {
		t.Error("receiver did not sense carrier during arrival")
	}
	if xs[0].Busy() || xs[1].Busy() {
		t.Error("radios still busy after channel drained")
	}
}

func TestAttachValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sched, Config{Name: "s", Profile: energy.Micaz()}, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Attach(5, OverhearFull, true); err == nil {
		t.Error("Attach outside layout did not error")
	}
	if _, err := ch.Attach(0, OverhearFull, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Attach(0, OverhearFull, true); !errors.Is(err, ErrAlreadyAttached) {
		t.Errorf("duplicate Attach = %v, want ErrAlreadyAttached", err)
	}
}

func TestChannelConfigValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", Profile: energy.Micaz(), LossProb: -0.1},
		{Name: "b", Profile: energy.Micaz(), LossProb: 1},
		{Name: "c", Profile: energy.Micaz(), Range: -1},
		{Name: "d", Profile: energy.Micaz(), WakeupLatency: -time.Second},
		{Name: "e", Profile: energy.Profile{}},
	}
	for _, cfg := range bad {
		if _, err := NewChannel(sched, cfg, layout); err == nil {
			t.Errorf("NewChannel accepted invalid config %+v", cfg)
		}
	}
	if _, err := NewChannel(sched, Config{Name: "ok", Profile: energy.Micaz()}, nil); err == nil {
		t.Error("NewChannel accepted nil layout")
	}
}

func TestRangeDefaultsToProfile(t *testing.T) {
	sched := sim.NewScheduler(1)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sched, Config{Name: "s", Profile: energy.Micaz()}, layout)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.Config().Range; got != energy.Micaz().Range {
		t.Errorf("Range = %v, want profile default %v", got, energy.Micaz().Range)
	}
}

func TestFrameHelpers(t *testing.T) {
	u := Frame{Kind: KindData, Src: 1, Dst: 2, Size: 43, Seq: 9}
	if !u.IsUnicast() {
		t.Error("unicast frame reported broadcast")
	}
	b := Frame{Kind: KindControl, Dst: Broadcast}
	if b.IsUnicast() {
		t.Error("broadcast frame reported unicast")
	}
	if got := u.String(); got != "data 1->2 seq=9 size=43 B" {
		t.Errorf("String() = %q", got)
	}
	if KindAck.String() != "ack" || KindControl.String() != "control" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string wrong")
	}
}
