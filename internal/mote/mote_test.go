package mote

import (
	"math"
	"slices"
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/netsim"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(2000)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"threshold below message", func(c *Config) { c.Threshold = 16 }},
		{"zero messages", func(c *Config) { c.Messages = 0 }},
		{"zero interval", func(c *Config) { c.Interval = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := good
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate accepted invalid config")
			}
		})
	}
}

func TestAllMessagesDelivered(t *testing.T) {
	cfg := DefaultConfig(2000)
	cfg.Messages = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 200 {
		t.Errorf("delivered %d/200", res.Delivered)
	}
}

// TestPrototypePins pins single runs exactly: delivered count and mean
// delay to the nanosecond, both energies per packet to 1e-12 relative.
// 750 B is not a whole number of 32 B messages, and 37 messages leave a
// remainder below every threshold for the final flush to drain.
func TestPrototypePins(t *testing.T) {
	pins := []struct {
		threshold units.ByteSize
		messages  int
		delivered int
		delay     time.Duration
		dualJ     float64
		sensorJ   float64
	}{
		{500, 500, 500, 752014310, 0.00091957726793699928, 0.0001902528000000065},
		{500, 37, 37, 695171139, 0.001151050053591892, 0.00019025279999999967},
		{750, 500, 500, 1152199003, 0.00062144619963599946, 0.0001902528000000065},
		{750, 37, 37, 998004672, 0.00078479566992972966, 0.00019025279999999967},
		{4000, 500, 500, 6207653044, 0.00016659223200239998, 0.0001902528000000065},
		{4000, 37, 37, 1906422176, 0.00042517874177837837, 0.00019025279999999967},
	}
	for _, p := range pins {
		cfg := DefaultConfig(p.threshold)
		cfg.Messages = p.messages
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != p.delivered || res.MeanDelayPerPacket != p.delay {
			t.Errorf("threshold %v, %d messages: delivered %d, delay %d ns; want %d, %d ns",
				p.threshold, p.messages, res.Delivered, int64(res.MeanDelayPerPacket), p.delivered, int64(p.delay))
		}
		for _, e := range []struct {
			name      string
			got, want float64
		}{
			{"dual", res.DualEnergyPerPacket.Joules(), p.dualJ},
			{"sensor", res.SensorEnergyPerPacket.Joules(), p.sensorJ},
		} {
			if rel := math.Abs(e.got-e.want) / e.want; rel > 1e-12 {
				t.Errorf("threshold %v, %d messages: %s energy/packet %.17g J, want %.17g (rel %g)",
					p.threshold, p.messages, e.name, e.got, e.want, rel)
			}
		}
	}
}

// radioKey names one radio of one node in the dual run's trace.
type radioKey struct {
	node  int
	radio string
}

// TestLogEnergyMatchesMeters rebuilds the dual run's energy from its
// traced radio state log alone, the way the paper post-processed its
// radio event logs: residency in each state times the profile's power,
// plus Profile.Wakeup per Off->WakingUp, with the sensor radio's idle
// free. The sum must equal the meters' total (DualEnergyPerPacket x
// Delivered) within 1e-9 relative, and each radio's wake-ups the
// meter's count.
func TestLogEnergyMatchesMeters(t *testing.T) {
	cfg := DefaultConfig(1500)
	cfg.Messages = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Scenario(cfg, netsim.ModelDual)
	if err != nil {
		t.Fatal(err)
	}
	type replay struct {
		state   energy.State
		since   time.Duration
		wakeups int
		energy  units.Energy
	}
	radios := make(map[radioKey]*replay)
	get := func(k radioKey) *replay {
		r, ok := radios[k]
		if !ok {
			// The emulated 802.11 radio attaches off, the sensor radio on.
			r = &replay{state: energy.Idle}
			if k.radio == "wifi" {
				r.state = energy.Off
			}
			radios[k] = r
		}
		return r
	}
	profile := func(radio string) energy.Profile {
		if radio == "sensor" {
			return cfg.SensorProfile
		}
		return cfg.WifiProfile
	}
	charge := func(k radioKey, r *replay, until time.Duration) {
		p, d := profile(k.radio), until-r.since
		switch {
		case r.state == energy.WakingUp || r.state == energy.Idle && k.radio == "wifi":
			r.energy += p.Idle.Over(d)
		case r.state == energy.Rx:
			r.energy += p.Rx.Over(d)
		case r.state == energy.Tx:
			r.energy += p.Tx.Over(d)
		}
	}
	for _, ev := range res.Dual.Trace.Events {
		if ev.Kind != trace.KindState {
			continue
		}
		k := radioKey{ev.Node, ev.Radio}
		r := get(k)
		charge(k, r, ev.At)
		if ev.From == energy.Off && ev.To == energy.WakingUp {
			r.wakeups++
		}
		r.state, r.since = ev.To, ev.At
	}
	var logTotal units.Energy
	for _, n := range res.Dual.PerNode {
		for _, x := range n.Radios {
			k := radioKey{n.Node, x.Radio}
			r := get(k)
			charge(k, r, s.Duration())
			if r.wakeups != x.Wakeups {
				t.Errorf("node %d %s: log has %d wake-ups, meter %d", n.Node, x.Radio, r.wakeups, x.Wakeups)
			}
			logTotal += r.energy + profile(x.Radio).Wakeup*units.Energy(float64(r.wakeups))
		}
	}
	meter := res.DualEnergyPerPacket * units.Energy(float64(res.Delivered))
	if meter == 0 {
		t.Fatal("meter energy zero")
	}
	if rel := math.Abs((logTotal - meter).Joules()) / meter.Joules(); rel > 1e-9 {
		t.Errorf("log energy %.12f J vs meter %.12f J: %g relative apart",
			logTotal.Joules(), meter.Joules(), rel)
	}
}

// TestLogOrderedAndPaired checks the dual run's traced log: events in
// time order, each radio transition leaving the state its previous one
// entered, every Tx and Rx it enters left again before the run ends,
// and every delivery preceded by the generation of the same packet.
func TestLogOrderedAndPaired(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Messages = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dual.Trace.Events) == 0 {
		t.Fatal("empty log")
	}
	state := make(map[radioKey]energy.State)
	generated := make(map[[2]uint64]bool) // (src, seq)
	delivered := 0
	var last time.Duration
	for i, ev := range res.Dual.Trace.Events {
		if ev.At < last {
			t.Fatalf("log out of order at %d: %v after %v", i, ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case trace.KindState:
			k := radioKey{ev.Node, ev.Radio}
			prev, ok := state[k]
			if ok && ev.From != prev {
				t.Fatalf("event %d: node %d %s leaves %v, but its last transition entered %v",
					i, ev.Node, ev.Radio, ev.From, prev)
			}
			state[k] = ev.To
		case trace.KindGenerated:
			generated[[2]uint64{uint64(ev.Src), ev.Seq}] = true
		case trace.KindDelivered:
			if !generated[[2]uint64{uint64(ev.Src), ev.Seq}] {
				t.Fatalf("event %d: packet %d/%d delivered before it was generated", i, ev.Src, ev.Seq)
			}
			delivered++
		}
	}
	for k, st := range state {
		if st == energy.Tx || st == energy.Rx {
			t.Errorf("node %d %s ends the run in %v: unpaired start", k.node, k.radio, st)
		}
	}
	if delivered != res.Delivered {
		t.Errorf("log has %d deliveries, result %d", delivered, res.Delivered)
	}
}

func TestPaperShapeFig11(t *testing.T) {
	// Figure 11: dual-radio energy per packet drops sharply as the
	// threshold grows, crosses the flat sensor-radio line, and flattens;
	// the sensor line does not move.
	// The paper's full 500-message runs: shorter runs leave a flush
	// remainder that distorts the average at large thresholds.
	thresholds := []units.ByteSize{500, 1000, 2000, 4000}
	var dual []float64
	var sensorLine []float64
	for _, th := range thresholds {
		cfg := DefaultConfig(th)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dual = append(dual, res.DualEnergyPerPacket.Microjoules())
		sensorLine = append(sensorLine, res.SensorEnergyPerPacket.Microjoules())
	}
	// Dual decreases (strictly across this coarse sweep).
	for i := 1; i < len(dual); i++ {
		if dual[i] >= dual[i-1] {
			t.Errorf("dual energy/packet not decreasing: %v", dual)
			break
		}
	}
	// Sensor is flat.
	for i := 1; i < len(sensorLine); i++ {
		if math.Abs(sensorLine[i]-sensorLine[0]) > 1e-6 {
			t.Errorf("sensor energy/packet not flat: %v", sensorLine)
			break
		}
	}
	// Crossover: above the sensor line at 500 B, below at 4000 B.
	if dual[0] <= sensorLine[0] {
		t.Errorf("dual %v µJ below sensor %v µJ at 500 B (should not cross yet)",
			dual[0], sensorLine[0])
	}
	if dual[len(dual)-1] >= sensorLine[0] {
		t.Errorf("dual %v µJ above sensor %v µJ at 4000 B (should have crossed)",
			dual[len(dual)-1], sensorLine[0])
	}
	// The rate of decrease diminishes past the break-even point (the
	// paper's diminishing-returns observation).
	drop1 := dual[0] - dual[1]
	drop3 := dual[2] - dual[3]
	if drop3 >= drop1 {
		t.Errorf("energy drop not diminishing: first %v, last %v", drop1, drop3)
	}
}

func TestPaperShapeFig12DelayTradeoff(t *testing.T) {
	// Figure 12: delay per packet grows with the threshold while energy
	// per packet falls; past a region, more delay buys little energy.
	var prevDelay time.Duration
	var prevEnergy float64 = math.Inf(1)
	for _, th := range []units.ByteSize{500, 1500, 3000} {
		cfg := DefaultConfig(th)
		cfg.Messages = 300
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanDelayPerPacket <= prevDelay {
			t.Errorf("delay %v at threshold %v not above previous %v",
				res.MeanDelayPerPacket, th, prevDelay)
		}
		if res.DualEnergyPerPacket.Microjoules() >= prevEnergy {
			t.Errorf("energy %v at threshold %v not below previous %v",
				res.DualEnergyPerPacket.Microjoules(), th, prevEnergy)
		}
		prevDelay = res.MeanDelayPerPacket
		prevEnergy = res.DualEnergyPerPacket.Microjoules()
	}
}

// wifiWakeups counts the emulated 802.11 radios' wake-ups on both
// nodes of the dual run.
func wifiWakeups(res Result) int {
	n := 0
	for _, node := range res.Dual.PerNode {
		for _, x := range node.Radios {
			if x.Radio == "wifi" {
				n += x.Wakeups
			}
		}
	}
	return n
}

func TestWakeupsScaleInversely(t *testing.T) {
	// Doubling the threshold halves the number of wake-up cycles.
	small, err := Run(DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	ws, wl := wifiWakeups(small), wifiWakeups(large)
	if wl*2 != ws {
		t.Errorf("wakeups %d (1000 B) vs %d (2000 B): want exact halving", ws, wl)
	}
}

func TestGenerationFollowsIntervalExactly(t *testing.T) {
	// 55 ms and 110 ms are intervals whose bit rate, divided back, lands
	// a nanosecond short of the period.
	for _, interval := range []time.Duration{55 * time.Millisecond, 100 * time.Millisecond, 110 * time.Millisecond, time.Second} {
		cfg := DefaultConfig(500)
		cfg.Messages = 3
		cfg.Interval = interval
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var at []time.Duration
		for _, ev := range res.Dual.Trace.Events {
			if ev.Kind == trace.KindGenerated {
				at = append(at, ev.At)
			}
		}
		want := []time.Duration{interval, 2 * interval, 3 * interval}
		if !slices.Equal(at, want) {
			t.Errorf("interval %v: generated at %v, want %v", interval, at, want)
		}
	}
}
