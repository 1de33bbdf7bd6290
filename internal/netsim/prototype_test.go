package netsim_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"bulktx/internal/analysis"
	"bulktx/internal/energy"
	"bulktx/internal/mac"
	"bulktx/internal/netsim"
	"bulktx/internal/params"
	"bulktx/internal/sweep"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// The Section 4.2 prototype's generation interval.
const protoInterval = 100 * time.Millisecond

// prototype is the Section 4.2 transfer of messages messages under a
// model at the paper's interval.
func prototype(model netsim.Model, threshold units.ByteSize, messages int) netsim.Config {
	return netsim.PrototypeConfig(model, threshold, messages, protoInterval)
}

// runProto runs one prototype transfer untraced.
func runProto(t *testing.T, cfg netsim.Config) netsim.Result {
	t.Helper()
	res, err := netsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runProtoTraced runs one prototype transfer with its packet and radio
// state events recorded, the event log the paper post-processed.
func runProtoTraced(t *testing.T, cfg netsim.Config) netsim.Result {
	t.Helper()
	s, err := cfg.Scenario(netsim.WithTrace(trace.Options{Packets: true, States: true}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// PrototypeConfig is the Section 4.2 pair: two nodes 10 m apart, the
// sink at node 1, a burst threshold of whole messages for the dual
// model only, and a horizon ten minutes past the flush.
func TestPrototypeConfig(t *testing.T) {
	dual := prototype(netsim.ModelDual, 750, 37)
	if err := dual.Validate(); err != nil {
		t.Fatal(err)
	}
	if dual.Topology != netsim.TopoLinear || dual.Nodes != 2 || dual.Field != 10 ||
		dual.Sink != 1 || dual.WifiRange != 10 || dual.Senders != 1 {
		t.Errorf("layout %q, %d nodes over %v, sink %d, wifi range %v, %d senders",
			dual.Topology, dual.Nodes, dual.Field, dual.Sink, dual.WifiRange, dual.Senders)
	}
	if dual.BurstPackets != 24 || dual.Messages != 37 {
		t.Errorf("burst %d packets, %d messages; want 24, 37", dual.BurstPackets, dual.Messages)
	}
	if want := 38*protoInterval + 10*time.Minute; dual.Duration != want {
		t.Errorf("duration %v, want %v", dual.Duration, want)
	}
	if dual.Rate.TimeFor(params.SensorPayload) != protoInterval {
		t.Errorf("rate %v: period %v, want %v", dual.Rate, dual.Rate.TimeFor(params.SensorPayload), protoInterval)
	}
	if a, b := prototype(netsim.ModelSensor, 500, 37), prototype(netsim.ModelSensor, 5000, 37); a != b {
		t.Errorf("sensor config depends on the threshold: %+v vs %+v", a, b)
	}
}

func TestAllMessagesDelivered(t *testing.T) {
	res := runProto(t, prototype(netsim.ModelDual, 2000, 200))
	if len(res.Delays) != 200 {
		t.Errorf("delivered %d/200", len(res.Delays))
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
		dual := runProto(t, prototype(netsim.ModelDual, p.threshold, p.messages))
		sensor := runProto(t, prototype(netsim.ModelSensor, p.threshold, p.messages))
		if len(dual.Delays) != p.delivered || dual.MeanDelay() != p.delay {
			t.Errorf("threshold %v, %d messages: delivered %d, delay %d ns; want %d, %d ns",
				p.threshold, p.messages, len(dual.Delays), int64(dual.MeanDelay()), p.delivered, int64(p.delay))
		}
		for _, e := range []struct {
			name      string
			got, want float64
		}{
			{"dual", dual.EnergyPerPacket().Joules(), p.dualJ},
			{"sensor", sensor.EnergyPerPacket().Joules(), p.sensorJ},
		} {
			if rel := math.Abs(e.got-e.want) / e.want; rel > 1e-12 {
				t.Errorf("threshold %v, %d messages: %s energy/packet %.17g J, want %.17g (rel %g)",
					p.threshold, p.messages, e.name, e.got, e.want, rel)
			}
		}
	}
}

// TestSensorEnergyMatchesEq1 checks the sensor baseline against the
// paper's Equation 1 through the sweep engine: a finite transfer of k
// messages costs E_L(k x 32 B) with every frame's link-layer ack
// charged too, so the simulated energy is Eq 1 scaled by (payload +
// header + ack) / (payload + header) = 54/43, to 1e-12 relative.
func TestSensorEnergyMatchesEq1(t *testing.T) {
	micaz, lucent := energy.Micaz(), energy.Lucent11()
	model, err := analysis.NewModel(micaz, lucent)
	if err != nil {
		t.Fatal(err)
	}
	frame := params.SensorPayload + params.SensorHeader
	ackFactor := float64(frame+mac.SensorParams().AckSize) / float64(frame)
	ks := []int{8, 104, 1000}
	cfgs := make([]netsim.Config, len(ks))
	for i, k := range ks {
		cfgs[i] = prototype(netsim.ModelSensor, 0, k)
	}
	groups, err := (&sweep.Pool{Cache: sweep.NewCache()}).Grid(cfgs, 1, cfgs[0].Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		res := groups[i][0]
		if len(res.Delays) != k {
			t.Fatalf("k=%d: delivered %d", k, len(res.Delays))
		}
		want := model.SensorEnergy(units.ByteSize(k)*params.SensorPayload).Joules() * ackFactor
		if rel := math.Abs(res.TotalEnergy.Joules()-want) / want; rel > 1e-12 {
			t.Errorf("k=%d: simulated %.17g J, Eq 1 with acks %.17g J (rel %g)",
				k, res.TotalEnergy.Joules(), want, rel)
		}
	}
}

// TestStateReplayReproducesPrototypeMeters replays the Section 4.2
// prototype's dual run, a capped transfer ending in a flush, against
// its meters (see checkStateReplay).
func TestStateReplayReproducesPrototypeMeters(t *testing.T) {
	for _, c := range []struct {
		threshold units.ByteSize
		messages  int
	}{{750, 37}, {2000, 500}} {
		s, err := prototype(netsim.ModelDual, c.threshold, c.messages).Scenario(
			netsim.WithTrace(trace.Options{States: true}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := netsim.RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		netsim.CheckStateReplay(t, s, res)
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
// free. The sum must equal the meters' total within 1e-9 relative, and
// each radio's wake-ups the meter's count.
func TestLogEnergyMatchesMeters(t *testing.T) {
	cfg := prototype(netsim.ModelDual, 1500, 300)
	res := runProtoTraced(t, cfg)
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
	for _, ev := range res.Trace.Events {
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
	for _, n := range res.PerNode {
		for _, x := range n.Radios {
			k := radioKey{n.Node, x.Radio}
			r := get(k)
			charge(k, r, cfg.Duration)
			if r.wakeups != x.Wakeups {
				t.Errorf("node %d %s: log has %d wake-ups, meter %d", n.Node, x.Radio, r.wakeups, x.Wakeups)
			}
			logTotal += r.energy + profile(x.Radio).Wakeup*units.Energy(float64(r.wakeups))
		}
	}
	meter := res.TotalEnergy
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
	res := runProtoTraced(t, prototype(netsim.ModelDual, 1000, 100))
	if len(res.Trace.Events) == 0 {
		t.Fatal("empty log")
	}
	state := make(map[radioKey]energy.State)
	generated := make(map[[2]uint64]bool) // (src, seq)
	delivered := 0
	var last time.Duration
	for i, ev := range res.Trace.Events {
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
	if delivered != len(res.Delays) {
		t.Errorf("log has %d deliveries, result %d", delivered, len(res.Delays))
	}
}

func TestPaperShapeFig11(t *testing.T) {
	// Figure 11: dual-radio energy per packet drops sharply as the
	// threshold grows, crosses the flat sensor-radio line, and flattens.
	// The sensor line is one run: its config ignores the threshold
	// (TestPrototypeConfig).
	// The paper's full 500-message runs: shorter runs leave a flush
	// remainder that distorts the average at large thresholds.
	thresholds := []units.ByteSize{500, 1000, 2000, 4000}
	var dual []float64
	for _, th := range thresholds {
		dual = append(dual, runProto(t, prototype(netsim.ModelDual, th, 500)).EnergyPerPacket().Microjoules())
	}
	sensorLine := []float64{runProto(t, prototype(netsim.ModelSensor, 0, 500)).EnergyPerPacket().Microjoules()}
	// Dual decreases (strictly across this coarse sweep).
	for i := 1; i < len(dual); i++ {
		if dual[i] >= dual[i-1] {
			t.Errorf("dual energy/packet not decreasing: %v", dual)
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
		res := runProto(t, prototype(netsim.ModelDual, th, 300))
		if res.MeanDelay() <= prevDelay {
			t.Errorf("delay %v at threshold %v not above previous %v",
				res.MeanDelay(), th, prevDelay)
		}
		if res.EnergyPerPacket().Microjoules() >= prevEnergy {
			t.Errorf("energy %v at threshold %v not below previous %v",
				res.EnergyPerPacket().Microjoules(), th, prevEnergy)
		}
		prevDelay = res.MeanDelay()
		prevEnergy = res.EnergyPerPacket().Microjoules()
	}
}

// wifiWakeups counts the emulated 802.11 radios' wake-ups on both
// nodes of a traced dual run.
func wifiWakeups(res netsim.Result) int {
	n := 0
	for _, node := range res.PerNode {
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
	small := runProtoTraced(t, prototype(netsim.ModelDual, 1000, 500))
	large := runProtoTraced(t, prototype(netsim.ModelDual, 2000, 500))
	ws, wl := wifiWakeups(small), wifiWakeups(large)
	if wl*2 != ws {
		t.Errorf("wakeups %d (1000 B) vs %d (2000 B): want exact halving", ws, wl)
	}
}

func TestGenerationFollowsIntervalExactly(t *testing.T) {
	// 55 ms and 110 ms are intervals whose bit rate, divided back, lands
	// a nanosecond short of the period.
	for _, interval := range []time.Duration{55 * time.Millisecond, 100 * time.Millisecond, 110 * time.Millisecond, time.Second} {
		res := runProtoTraced(t, netsim.PrototypeConfig(netsim.ModelDual, 500, 3, interval))
		var at []time.Duration
		for _, ev := range res.Trace.Events {
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
