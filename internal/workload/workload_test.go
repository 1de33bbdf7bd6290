package workload

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/sim"
	"bulktx/internal/units"
)

func TestCBRRate(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []core.Packet
	g, err := NewCBR(sched, 3, 9, 2000, 32, func(p core.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	// 32 B at 2 Kbps: one packet per 128 ms.
	if want := 128 * time.Millisecond; g.Period() != want {
		t.Fatalf("Period = %v, want %v", g.Period(), want)
	}
	g.Start()
	sched.RunUntil(10 * time.Second)
	g.Stop()
	sched.Run()

	// 10 s / 128 ms = 78.1 periods; phase offset removes at most one.
	if n := len(got); n < 77 || n > 79 {
		t.Errorf("generated %d packets in 10s, want ~78", n)
	}
	packets, bits := g.Generated()
	if int(packets) != len(got) {
		t.Errorf("Generated() = %d, emitted %d", packets, len(got))
	}
	if bits != int64(packets)*256 {
		t.Errorf("bits = %d, want %d", bits, int64(packets)*256)
	}
}

func TestCBRCappedTransfer(t *testing.T) {
	sched := sim.NewScheduler(1)
	var at []time.Duration
	var doneAt time.Duration
	g, err := NewCBR(sched, 0, 1, 2000, 32, func(p core.Packet) { at = append(at, sched.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	g.StartCapped(3, func() { doneAt = sched.Now() })
	sched.Run()
	// No random phase: packets at 1, 2 and 3 periods, done one period on.
	period := g.Period()
	want := []time.Duration{period, 2 * period, 3 * period}
	if !slices.Equal(at, want) || doneAt != 4*period {
		t.Errorf("packets at %v, done at %v; want %v, done at %v", at, doneAt, want, 4*period)
	}
	if packets, _ := g.Generated(); packets != 3 {
		t.Errorf("Generated() = %d, want 3", packets)
	}
	if got, fresh := sched.Rand().Int63(), sim.NewScheduler(1).Rand().Int63(); got != fresh {
		t.Error("capped start drew from the run's random source")
	}
}

func TestCBRPacketFields(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []core.Packet
	g, err := NewCBR(sched, 7, 2, 200, 32, func(p core.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	sched.RunUntil(5 * time.Second)
	if len(got) == 0 {
		t.Fatal("nothing generated")
	}
	for i, p := range got {
		if p.Src != 7 || p.Dst != 2 || p.Size != 32 {
			t.Fatalf("packet %d fields wrong: %+v", i, p)
		}
		if p.Seq != uint64(i+1) {
			t.Fatalf("packet %d seq = %d", i, p.Seq)
		}
		if i > 0 && got[i].Created-got[i-1].Created != g.Period() {
			t.Fatalf("irregular spacing at %d", i)
		}
	}
}

func TestCBRStartIdempotentStopHalts(t *testing.T) {
	sched := sim.NewScheduler(1)
	count := 0
	g, err := NewCBR(sched, 0, 1, 2000, 32, func(core.Packet) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	g.Start() // no-op
	sched.RunUntil(time.Second)
	atStop := count
	g.Stop()
	sched.RunUntil(10 * time.Second)
	if count != atStop {
		t.Errorf("generated %d more packets after Stop", count-atStop)
	}
}

func TestCBRStartWithin(t *testing.T) {
	// A large window defers the first packet beyond one period for most
	// seeds; with a fixed seed we just check the first emission lands
	// within the window.
	sched := sim.NewScheduler(42)
	var first sim.Time = -1
	g, err := NewCBR(sched, 0, 1, 2000, 32, func(p core.Packet) {
		if first < 0 {
			first = p.Created
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	window := 64 * time.Second
	g.StartWithin(window)
	sched.RunUntil(2 * window)
	if first < 0 {
		t.Fatal("nothing generated")
	}
	if first > window {
		t.Errorf("first packet at %v, beyond window %v", first, window)
	}
}

func TestCBRValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	emit := func(core.Packet) {}
	if _, err := NewCBR(sched, 0, 1, 0, 32, emit); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewCBR(sched, 0, 1, 200, 0, emit); err == nil {
		t.Error("zero payload accepted")
	}
	if _, err := NewCBR(sched, 0, 1, 200, 32, nil); err == nil {
		t.Error("nil emit accepted")
	}
}

// Property: generated packet count matches elapsed time / period within
// one packet, for any rate and duration.
func TestCBRCountProperty(t *testing.T) {
	f := func(rateKbps uint8, seconds uint8) bool {
		rate := units.BitRate(int(rateKbps%50)+1) * units.Kbps
		dur := time.Duration(int(seconds%60)+1) * time.Second
		sched := sim.NewScheduler(9)
		count := 0
		g, err := NewCBR(sched, 0, 1, rate, 32, func(core.Packet) { count++ })
		if err != nil {
			return false
		}
		g.Start()
		sched.RunUntil(dur)
		expect := int(dur / g.Period())
		return count >= expect-1 && count <= expect+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRecorder(t *testing.T) {
	sched := sim.NewScheduler(1)
	r := NewRecorder(sched)
	sched.After(2*time.Second, func() {
		r.Receive(core.Packet{Size: 32, Created: 0})
	})
	sched.After(3*time.Second, func() {
		r.Receive(core.Packet{Size: 32, Created: sim.Time(time.Second)})
	})
	sched.Run()

	if got := r.DeliveredPackets(); got != 2 {
		t.Errorf("DeliveredPackets = %d, want 2", got)
	}
	if got := r.DeliveredBits(); got != 512 {
		t.Errorf("DeliveredBits = %d, want 512", got)
	}
	delays := r.TakeDelays()
	if len(delays) != 2 || delays[0] != 2*time.Second || delays[1] != 2*time.Second {
		t.Errorf("TakeDelays = %v, want [2s 2s]", delays)
	}
	// The handed-over slice is the caller's: the recorder forgot it, and
	// a later delivery does not write into it.
	r.Receive(core.Packet{Size: 32, Created: 0})
	if full := delays[:cap(delays)]; slices.ContainsFunc(full[2:], func(d time.Duration) bool { return d != 0 }) {
		t.Errorf("a delivery after TakeDelays wrote into the handed-over slice: %v", delays[:cap(delays)])
	}
	if got := r.TakeDelays(); len(got) != 1 || got[0] != 3*time.Second {
		t.Errorf("second TakeDelays = %v, want the one later delay", got)
	}
	if got := NewRecorder(sched).TakeDelays(); got == nil || len(got) != 0 {
		t.Errorf("TakeDelays with no deliveries = %#v, want empty, not nil", got)
	}
}
