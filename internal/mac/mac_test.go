package mac

import (
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/radio"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
)

// testLink builds n nodes on a 30 m-spaced line with sensor MACs.
func testLink(t *testing.T, n int, lossProb float64, p Params) (*sim.Scheduler, []*MAC) {
	t.Helper()
	sched := sim.NewScheduler(99)
	layout, err := topo.Line(n, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := radio.NewChannel(sched, radio.Config{
		Name:       "sensor",
		Profile:    energy.Micaz(),
		LossProb:   lossProb,
		HeaderSize: 11,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	macs := make([]*MAC, n)
	for i := 0; i < n; i++ {
		x, err := ch.Attach(radio.NodeID(i), radio.OverhearFree, true)
		if err != nil {
			t.Fatal(err)
		}
		macs[i], err = New(p, sched, x)
		if err != nil {
			t.Fatal(err)
		}
	}
	return sched, macs
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{SensorParams(), WifiParams()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", p.Name, err)
		}
	}
	bad := SensorParams()
	bad.CWMin = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted CWMin=0")
	}
	bad = SensorParams()
	bad.CWMax = bad.CWMin - 1
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted CWMax < CWMin")
	}
	bad = SensorParams()
	bad.SlotTime = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero slot time")
	}
	bad = SensorParams()
	bad.QueueCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero queue capacity")
	}
	bad = SensorParams()
	bad.AckSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero ack size")
	}
	bad = SensorParams()
	bad.RetryLimit = -1
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted negative retry limit")
	}
}

func TestUnicastDeliveryWithAck(t *testing.T) {
	sched, macs := testLink(t, 2, 0, SensorParams())
	var delivered []radio.Frame
	macs[1].SetOnReceive(func(f radio.Frame) { delivered = append(delivered, f) })
	var sent []radio.Frame
	macs[0].SetOnSent(func(f radio.Frame) { sent = append(sent, f) })

	err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43, Payload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if len(delivered) != 1 || delivered[0].Payload != "x" {
		t.Fatalf("delivered %v", delivered)
	}
	if len(sent) != 1 {
		t.Fatalf("onSent fired %d times, want 1", len(sent))
	}
	st := macs[0].Stats()
	if st.Sent != 1 || st.Retries != 0 {
		t.Errorf("sender stats %+v", st)
	}
	if !macs[0].Idle() {
		t.Error("sender MAC not idle after completion")
	}
}

func TestQueuedFramesAllDelivered(t *testing.T) {
	sched, macs := testLink(t, 2, 0, SensorParams())
	got := 0
	macs[1].SetOnReceive(func(radio.Frame) { got++ })
	for i := 0; i < 20; i++ {
		if err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if got != 20 {
		t.Errorf("delivered %d frames, want 20", got)
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	// 40% frame loss: retries must recover most frames.
	sched, macs := testLink(t, 2, 0.4, SensorParams())
	got := 0
	macs[1].SetOnReceive(func(radio.Frame) { got++ })
	dropped := 0
	macs[0].SetOnDrop(func(radio.Frame, DropReason) { dropped++ })
	const n = 50
	for i := 0; i < n; i++ {
		if err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if got+dropped < n {
		t.Errorf("got %d + dropped %d < sent %d", got, dropped, n)
	}
	if got < n*8/10 {
		t.Errorf("delivered only %d/%d under 40%% loss with retries", got, n)
	}
	if st := macs[0].Stats(); st.Retries == 0 {
		t.Error("no retries recorded under 40% loss")
	}
}

func TestRetryLimitDrops(t *testing.T) {
	// Receiver off: every attempt times out and the frame is dropped
	// after RetryLimit retries.
	sched := sim.NewScheduler(5)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := radio.NewChannel(sched, radio.Config{
		Name: "sensor", Profile: energy.Micaz(), HeaderSize: 11,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	xa, err := ch.Attach(0, radio.OverhearFree, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = ch.Attach(1, radio.OverhearFree, false); err != nil { // off
		t.Fatal(err)
	}
	m, err := New(SensorParams(), sched, xa)
	if err != nil {
		t.Fatal(err)
	}
	var reason DropReason
	drops := 0
	m.SetOnDrop(func(_ radio.Frame, r DropReason) { drops++; reason = r })
	if err := m.Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if drops != 1 || reason != DropRetryLimit {
		t.Errorf("drops=%d reason=%v, want 1 retry-limit", drops, reason)
	}
	if st := m.Stats(); st.Retries != uint64(SensorParams().RetryLimit)+1 {
		t.Errorf("Retries = %d, want %d", st.Retries, SensorParams().RetryLimit+1)
	}
}

func TestQueueOverflow(t *testing.T) {
	p := SensorParams()
	p.QueueCap = 4
	_, macs := testLink(t, 2, 0, p)
	// Synchronous rejection must notify through the error alone — the
	// onDrop callback is reserved for accepted-then-abandoned frames,
	// so callers handling both never double-count a rejection.
	callbacks := 0
	macs[0].SetOnDrop(func(_ radio.Frame, r DropReason) {
		if r == DropQueueFull {
			callbacks++
		}
	})
	var lastErr error
	rejected := 0
	for i := 0; i < 6; i++ {
		if err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
			lastErr = err
			rejected++
		}
	}
	// Send's contract returns ErrQueueFull bare, not wrapped.
	if lastErr != ErrQueueFull {
		t.Errorf("overflow error = %v, want ErrQueueFull itself", lastErr)
	}
	if rejected != 2 {
		t.Errorf("rejected sends = %d, want 2", rejected)
	}
	if callbacks != 0 {
		t.Errorf("onDrop fired %d times on synchronous rejection, want 0", callbacks)
	}
	if got := macs[0].Stats().Drops[DropQueueFull]; got != 2 {
		t.Errorf("Drops[DropQueueFull] = %d, want 2", got)
	}
	// A saturated forwarder meets a rejection per packet it is handed,
	// so a rejection must allocate nothing.
	frame := radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}
	if allocs := testing.AllocsPerRun(100, func() { _ = macs[0].Send(frame) }); allocs != 0 {
		t.Errorf("Send on a full queue allocates %.0f times, want 0", allocs)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Kill the ack path by keeping the receiver's ack from arriving: use
	// heavy loss but deliver data: easiest deterministic approach is to
	// drop acks by powering the *sender's* receive path — instead we
	// simulate at the protocol level: send the same frame twice via a raw
	// transceiver and verify the MAC delivers once.
	sched := sim.NewScheduler(3)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := radio.NewChannel(sched, radio.Config{
		Name: "sensor", Profile: energy.Micaz(), HeaderSize: 11,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ch.Attach(0, radio.OverhearFree, true)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := ch.Attach(1, radio.OverhearFree, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(SensorParams(), sched, xb)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	m.SetOnReceive(func(radio.Frame) { got++ })

	f := radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43, Seq: 42}
	if err := raw.Transmit(f); err != nil {
		t.Fatal(err)
	}
	sched.After(50*time.Millisecond, func() {
		if err := raw.Transmit(f); err != nil {
			t.Error(err)
		}
	})
	sched.Run()
	if got != 1 {
		t.Errorf("delivered %d copies of a retransmitted frame, want 1", got)
	}
	if st := m.Stats(); st.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", st.Duplicates)
	}
}

func TestBroadcastNoAck(t *testing.T) {
	sched, macs := testLink(t, 3, 0, SensorParams())
	got := 0
	macs[0].SetOnReceive(func(radio.Frame) { got++ })
	got2 := 0
	macs[2].SetOnReceive(func(radio.Frame) { got2++ })
	// Node 1 is in range of 0 and 2.
	if err := macs[1].Send(radio.Frame{Kind: radio.KindControl, Dst: radio.Broadcast, Size: 27}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if got != 1 || got2 != 1 {
		t.Errorf("broadcast delivered to %d/%d, want 1/1", got, got2)
	}
	// No acks should have been transmitted for broadcast.
	if st := macs[1].Transceiver().Channel().Stats(); st.Transmissions != 1 {
		t.Errorf("channel transmissions = %d, want 1 (no acks)", st.Transmissions)
	}
}

func TestContentionBothDeliver(t *testing.T) {
	// Nodes 0 and 2 both send to middle node 1; CSMA backoff must
	// eventually deliver both despite initial collisions.
	sched, macs := testLink(t, 3, 0, SensorParams())
	got := 0
	macs[1].SetOnReceive(func(radio.Frame) { got++ })
	for i := 0; i < 10; i++ {
		if err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
			t.Fatal(err)
		}
		if err := macs[2].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if got != 20 {
		t.Errorf("delivered %d frames under contention, want 20", got)
	}
}

func TestFlushDropsQueue(t *testing.T) {
	sched, macs := testLink(t, 2, 0, SensorParams())
	dropped := 0
	macs[0].SetOnDrop(func(_ radio.Frame, r DropReason) {
		if r == DropRadioOff {
			dropped++
		}
	})
	for i := 0; i < 5; i++ {
		if err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
			t.Fatal(err)
		}
	}
	macs[0].Flush()
	if dropped != 5 {
		t.Errorf("flush dropped %d, want 5", dropped)
	}
	if !macs[0].Idle() {
		t.Error("MAC not idle after flush")
	}
	// MAC must remain usable after a flush.
	got := 0
	macs[1].SetOnReceive(func(radio.Frame) { got++ })
	if err := macs[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 43}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if got != 1 {
		t.Errorf("post-flush send delivered %d, want 1", got)
	}
}

func TestWifiParamsFasterThanSensor(t *testing.T) {
	// The DCF timing constants must be an order of magnitude tighter than
	// the sensor MAC's (the premise of fast bulk transfer).
	w, s := WifiParams(), SensorParams()
	if w.SlotTime >= s.SlotTime || w.SIFS >= s.SIFS || w.DIFS >= s.DIFS {
		t.Errorf("wifi timing not tighter: %+v vs %+v", w, s)
	}
}

func TestDCFDelivery(t *testing.T) {
	sched := sim.NewScheduler(11)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := radio.NewChannel(sched, radio.Config{
		Name: "wifi", Profile: energy.Lucent11(), Range: 40, HeaderSize: 58,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	var ms [2]*MAC
	for i := 0; i < 2; i++ {
		x, err := ch.Attach(radio.NodeID(i), radio.OverhearFull, true)
		if err != nil {
			t.Fatal(err)
		}
		if ms[i], err = New(WifiParams(), sched, x); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	ms[1].SetOnReceive(func(radio.Frame) { got++ })
	start := sched.Now()
	for i := 0; i < 10; i++ {
		if err := ms[0].Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 1082}); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if got != 10 {
		t.Fatalf("delivered %d, want 10", got)
	}
	elapsed := sched.Now() - start
	// 10 x 1082 B at 11 Mbps is ~7.9 ms of airtime; MAC overhead should
	// keep the total well under 5x that.
	if elapsed > 40*time.Millisecond {
		t.Errorf("10-frame burst took %v, expected low MAC overhead", elapsed)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	_, macs := testLink(t, 2, 0, SensorParams())
	st := macs[0].Stats()
	st.Drops[DropRetryLimit] = 999
	if macs[0].Stats().Drops[DropRetryLimit] == 999 {
		t.Error("Stats() exposes internal map")
	}
}

func TestDropReasonString(t *testing.T) {
	tests := []struct {
		r    DropReason
		want string
	}{
		{DropRetryLimit, "retry-limit"},
		{DropQueueFull, "queue-full"},
		{DropRadioOff, "radio-off"},
		{DropReason(77), "DropReason(77)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestSendToOffRadioViaQueue(t *testing.T) {
	// Frames queued while the radio is off are dropped at sense time with
	// DropRadioOff.
	sched := sim.NewScheduler(5)
	layout, err := topo.Line(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := radio.NewChannel(sched, radio.Config{
		Name: "wifi", Profile: energy.Lucent11(), Range: 40, HeaderSize: 58,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Attach(0, radio.OverhearFull, false) // off
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(WifiParams(), sched, x)
	if err != nil {
		t.Fatal(err)
	}
	var reason DropReason
	m.SetOnDrop(func(_ radio.Frame, r DropReason) { reason = r })
	if err := m.Send(radio.Frame{Kind: radio.KindData, Dst: 1, Size: 1082}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if reason != DropRadioOff {
		t.Errorf("drop reason = %v, want radio-off", reason)
	}
}
