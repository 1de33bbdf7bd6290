package trace

import (
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/metrics"
	"bulktx/internal/sim"
)

// fakeClock is a manually advanced simulated clock.
type fakeClock struct{ now sim.Time }

func (f *fakeClock) read() sim.Time { return f.now }

func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{
		KindGenerated: "generated",
		KindForwarded: "forwarded",
		KindDelivered: "delivered",
		KindDropped:   "dropped",
		KindState:     "state",
		Kind(99):      "Kind(99)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

func TestHopLatencyTracking(t *testing.T) {
	clk := &fakeClock{}
	c := NewCollector(Options{Packets: true}, clk.read)

	c.PacketGenerated(1, 1, 9, 42)
	clk.now = 10 * time.Millisecond
	c.PacketForwarded(2, 1, 9, 42)
	clk.now = 25 * time.Millisecond
	c.PacketDelivered(9, 1, 9, 42)

	rec := c.Finish()
	if len(rec.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(rec.Events))
	}
	wantLat := []time.Duration{0, 10 * time.Millisecond, 15 * time.Millisecond}
	wantKind := []Kind{KindGenerated, KindForwarded, KindDelivered}
	for i, ev := range rec.Events {
		if ev.Kind != wantKind[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, wantKind[i])
		}
		if ev.HopLatency != wantLat[i] {
			t.Errorf("event %d hop latency = %v, want %v", i, ev.HopLatency, wantLat[i])
		}
		if ev.Src != 1 || ev.Dst != 9 || ev.Seq != 42 {
			t.Errorf("event %d identity = (%d,%d,%d), want (1,9,42)", i, ev.Src, ev.Dst, ev.Seq)
		}
	}

	// Delivery is final: the packet's hop clock is gone, so an aberrant
	// later event restarts from zero latency rather than measuring
	// against stale state.
	clk.now = 40 * time.Millisecond
	c.PacketForwarded(3, 1, 9, 42)
	rec = c.Finish()
	if lat := rec.Events[3].HopLatency; lat != 0 {
		t.Errorf("post-delivery forward latency = %v, want 0 (clock cleared)", lat)
	}
}

func TestDropClearsHopClock(t *testing.T) {
	clk := &fakeClock{}
	c := NewCollector(Options{Packets: true}, clk.read)
	c.PacketGenerated(1, 1, 9, 7)
	clk.now = 5 * time.Millisecond
	c.PacketDropped(1, 1, 9, 7, "buffer-full")
	rec := c.Finish()
	if rec.Events[1].Reason != "buffer-full" {
		t.Errorf("drop reason = %q", rec.Events[1].Reason)
	}
	if rec.Events[1].HopLatency != 5*time.Millisecond {
		t.Errorf("drop latency = %v, want 5ms", rec.Events[1].HopLatency)
	}
	if len(c.lastHop) != 0 {
		t.Errorf("hop clock leaked %d entries after terminal event", len(c.lastHop))
	}
}

func TestOptionsGateStreams(t *testing.T) {
	clk := &fakeClock{}
	c := NewCollector(Options{}, clk.read) // breakdowns only
	c.PacketGenerated(0, 0, 1, 1)
	c.StateChange(0, "sensor", energy.Idle, energy.Tx)
	if rec := c.Finish(); len(rec.Events) != 0 {
		t.Errorf("disabled streams recorded %d events", len(rec.Events))
	}

	c = NewCollector(Options{States: true}, clk.read)
	c.PacketGenerated(0, 0, 1, 1) // packets still off
	c.StateChange(0, "sensor", energy.Idle, energy.Tx)
	rec := c.Finish()
	if len(rec.Events) != 1 || rec.Events[0].Kind != KindState {
		t.Fatalf("states-only collector recorded %v", rec.Events)
	}
	if rec.Events[0].From != energy.Idle || rec.Events[0].To != energy.Tx {
		t.Errorf("state event = %+v", rec.Events[0])
	}
}

func TestMaxEventsTruncates(t *testing.T) {
	clk := &fakeClock{}
	c := NewCollector(Options{Packets: true, MaxEvents: 2}, clk.read)
	for seq := uint64(0); seq < 5; seq++ {
		c.PacketGenerated(0, 0, 1, seq)
	}
	rec := c.Finish()
	if len(rec.Events) != 2 {
		t.Errorf("got %d events, want cap of 2", len(rec.Events))
	}
	if !rec.Truncated {
		t.Error("Truncated not set after hitting MaxEvents")
	}
}

func TestFinishGroupsBreakdownByNode(t *testing.T) {
	clk := &fakeClock{}
	profile := energy.Micaz()
	mkMeter := func() *energy.Meter { return energy.NewMeter(profile, &clk.now) }

	// Node 0 with two radios, node 1 with one; drive some charges.
	s0, w0, s1 := mkMeter(), mkMeter(), mkMeter()
	c := NewCollector(Options{}, clk.read)
	c.RegisterMeter(0, "sensor", s0)
	c.RegisterMeter(0, "wifi", w0)
	c.RegisterMeter(1, "sensor", s1)

	s0.Transition(energy.Tx)
	s1.Transition(energy.Rx)
	clk.now = time.Second
	s0.Transition(energy.Idle)
	s1.Transition(energy.Idle)

	rec := c.Finish()
	if len(rec.PerNode) != 2 {
		t.Fatalf("got %d nodes, want 2", len(rec.PerNode))
	}
	n0 := rec.PerNode[0]
	if n0.Node != 0 || len(n0.Radios) != 2 {
		t.Fatalf("node 0 breakdown = %+v", n0)
	}
	if n0.Radios[0].Radio != "sensor" || n0.Radios[1].Radio != "wifi" {
		t.Errorf("radio order = %q, %q", n0.Radios[0].Radio, n0.Radios[1].Radio)
	}
	// 1 s of Tx at the Micaz profile.
	wantTx := profile.Tx.Over(time.Second)
	if got := n0.Radios[0].Total; got != wantTx {
		t.Errorf("node 0 sensor total = %v, want %v", got, wantTx)
	}
	if got := metrics.TotalPerNode(rec.PerNode); got != wantTx+profile.Rx.Over(time.Second) {
		t.Errorf("TotalPerNode = %v, want tx+rx second", got)
	}
	// Per-state entries carry residency and are canonically ordered.
	states := n0.Radios[0].States
	if len(states) == 0 || states[len(states)-1].State != "tx" {
		t.Fatalf("sensor states = %+v, want trailing tx entry", states)
	}
	if states[len(states)-1].Time != time.Second {
		t.Errorf("tx residency = %v, want 1s", states[len(states)-1].Time)
	}
}

func TestSamplesRecordRegisteredMeters(t *testing.T) {
	clk := &fakeClock{}
	m := energy.NewMeter(energy.Micaz(), &clk.now)
	c := NewCollector(Options{SampleEvery: time.Second}, clk.read)
	c.RegisterMeter(3, "sensor", m)

	m.Transition(energy.Tx)
	clk.now = time.Second
	c.TakeSample()
	clk.now = 2 * time.Second
	c.TakeSample()

	rec := c.Finish()
	if len(rec.Samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(rec.Samples))
	}
	first := rec.Samples[0]
	if first.Node != 3 || first.Radio != "sensor" || first.State != energy.Tx {
		t.Errorf("sample = %+v", first)
	}
	if first.Energy <= 0 || rec.Samples[1].Energy <= first.Energy {
		t.Errorf("cumulative energy not increasing: %v then %v",
			first.Energy, rec.Samples[1].Energy)
	}
}
