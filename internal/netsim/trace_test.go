package netsim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/metrics"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// tracedRun executes a short flat-config run with the given trace
// options layered on top.
func tracedRun(t *testing.T, cfg Config, opts trace.Options) Result {
	t.Helper()
	s, err := cfg.Scenario(WithTrace(opts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestUntracedRunCarriesNoTrace(t *testing.T) {
	res := mustRun(t, shortConfig(ModelDual, 5, 100, 1))
	if res.PerNode != nil {
		t.Error("untraced run populated PerNode")
	}
	if res.Trace != nil {
		t.Error("untraced run populated Trace")
	}
}

// The acceptance bar of the trace subsystem: the per-node breakdown is
// the same energy the run already reports, just attributed — summing it
// back must reproduce TotalEnergy to within float-accumulation noise.
func TestPerNodeBreakdownSumsToTotalEnergy(t *testing.T) {
	for _, model := range []Model{ModelSensor, ModelWifi, ModelDual} {
		t.Run(model.String(), func(t *testing.T) {
			res := tracedRun(t, shortConfig(model, 5, 100, 1), trace.Options{})
			if len(res.PerNode) == 0 {
				t.Fatal("traced run produced no per-node breakdown")
			}
			sum := metrics.TotalPerNode(res.PerNode)
			if diff := math.Abs(sum.Joules() - res.TotalEnergy.Joules()); diff > 1e-9 {
				t.Errorf("breakdown sum %v != TotalEnergy %v (diff %g J)",
					sum, res.TotalEnergy, diff)
			}
			// Dual-radio nodes carry both radios, in sensor-then-wifi order.
			wantRadios := 1
			if model == ModelDual {
				wantRadios = 2
			}
			for _, n := range res.PerNode {
				if len(n.Radios) != wantRadios {
					t.Fatalf("node %d has %d radios, want %d", n.Node, len(n.Radios), wantRadios)
				}
			}
		})
	}
}

// Tracing must observe, not perturb: a traced run (without sampling,
// which legitimately settles meters mid-run) reports bit-identical
// outcomes to the untraced run of the same seed.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	plain := mustRun(t, cfg)
	traced := tracedRun(t, cfg, trace.Options{Packets: true, States: true})
	if plain.GeneratedBits != traced.GeneratedBits ||
		plain.DeliveredBits != traced.DeliveredBits ||
		plain.TotalEnergy != traced.TotalEnergy ||
		plain.Events != traced.Events {
		t.Errorf("traced run diverged: %+v vs %+v", plain.RunResult, traced.RunResult)
	}
	if len(plain.Delays) != len(traced.Delays) {
		t.Fatalf("delay counts diverged: %d vs %d", len(plain.Delays), len(traced.Delays))
	}
	for i := range plain.Delays {
		if plain.Delays[i] != traced.Delays[i] {
			t.Fatalf("delay %d diverged: %v vs %v", i, plain.Delays[i], traced.Delays[i])
		}
	}
}

func TestPacketProvenanceChain(t *testing.T) {
	res := tracedRun(t, shortConfig(ModelDual, 5, 100, 1), trace.Options{Packets: true})
	rec := res.Trace
	if rec == nil || len(rec.Events) == 0 {
		t.Fatal("no provenance events recorded")
	}
	var generated, delivered, forwarded int
	last := time.Duration(-1)
	for _, ev := range rec.Events {
		if ev.At < last {
			t.Fatalf("events out of time order at %v after %v", ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case trace.KindGenerated:
			generated++
		case trace.KindDelivered:
			delivered++
			if ev.HopLatency < 0 {
				t.Errorf("negative hop latency %v", ev.HopLatency)
			}
		case trace.KindForwarded:
			forwarded++
		}
	}
	if generated == 0 || delivered == 0 {
		t.Fatalf("generated=%d delivered=%d, want both positive", generated, delivered)
	}
	if delivered > generated {
		t.Errorf("delivered %d > generated %d", delivered, generated)
	}
	// Deliveries in the event stream are exactly the recorder's view.
	wantDelivered := len(res.Delays)
	if delivered != wantDelivered {
		t.Errorf("trace saw %d deliveries, metrics saw %d", delivered, wantDelivered)
	}
}

func TestStateTransitionEvents(t *testing.T) {
	res := tracedRun(t, shortConfig(ModelDual, 5, 100, 1), trace.Options{States: true})
	var wifiWakes int
	for _, ev := range res.Trace.Events {
		if ev.Kind != trace.KindState {
			t.Fatalf("unexpected non-state event %v with only States enabled", ev.Kind)
		}
		if ev.Radio == "wifi" && ev.To.String() == "waking-up" {
			wifiWakes++
		}
	}
	if wifiWakes == 0 {
		t.Error("dual model recorded no wifi wake-up transitions")
	}
	// Wake transitions observed in the stream match the meters' counts.
	var meterWakes int
	for _, n := range res.PerNode {
		for _, r := range n.Radios {
			if r.Radio == "wifi" {
				meterWakes += r.Wakeups
			}
		}
	}
	if wifiWakes != meterWakes {
		t.Errorf("stream saw %d wifi wakes, meters counted %d", wifiWakes, meterWakes)
	}
}

// checkStateReplay computes each radio's energy from the run's
// KindState events alone, the way the paper post-processed its radio
// event logs, and checks it against the meters. Events must be in time
// order and each transition must leave the state the radio's previous
// one entered. Per radio, the replayed residency in every state must
// equal the ledger's exactly, the replayed Off->WakingUp count must
// equal the meter's wake-ups, and residencies x profile powers plus
// wake-ups x Profile.Wakeup must equal the ledger total less its
// Overhear charges (a fixed per-frame charge, not a residency) within
// 1e-9 relative. Free states (the sensor radio's idle) count as zero.
func checkStateReplay(t testing.TB, s *Scenario, res Result) {
	t.Helper()
	if res.Trace == nil || res.Trace.Truncated {
		t.Fatal("replay needs a complete traced run")
	}
	type radioKey struct {
		node  int
		radio string
	}
	type replay struct {
		state   energy.State
		since   time.Duration
		in      map[energy.State]time.Duration
		wakeups int
	}
	radios := make(map[radioKey]*replay)
	get := func(node int, radio string) *replay {
		k := radioKey{node, radio}
		r, ok := radios[k]
		if !ok {
			// Radios attach on, except the dual model's 802.11 radio.
			start := energy.Idle
			if radio == "wifi" && s.cfg.Model == ModelDual {
				start = energy.Off
			}
			r = &replay{state: start, in: make(map[energy.State]time.Duration)}
			radios[k] = r
		}
		return r
	}
	var last time.Duration
	var transitions int
	for i, ev := range res.Trace.Events {
		if ev.At < last {
			t.Fatalf("event %d at %v precedes the previous one at %v", i, ev.At, last)
		}
		last = ev.At
		if ev.Kind != trace.KindState {
			continue
		}
		transitions++
		r := get(ev.Node, ev.Radio)
		if ev.From != r.state {
			t.Fatalf("event %d at %v: node %d %s leaves %v, but its last transition entered %v",
				i, ev.At, ev.Node, ev.Radio, ev.From, r.state)
		}
		r.in[r.state] += ev.At - r.since
		if ev.From == energy.Off && ev.To == energy.WakingUp {
			r.wakeups++
		}
		r.state, r.since = ev.To, ev.At
	}
	if transitions == 0 {
		t.Fatal("no state transitions traced")
	}
	for _, n := range res.PerNode {
		for _, x := range n.Radios {
			r := get(n.Node, x.Radio)
			r.in[r.state] += s.cfg.Duration - r.since
			p, freeIdle := s.cfg.WifiProfile, false
			if x.Radio == "sensor" {
				p, freeIdle = s.cfg.SensorProfile, true
			}
			ledger := make(map[string]metrics.StateEnergy)
			for _, st := range x.States {
				ledger[st.State] = st
			}
			var replayed units.Energy
			for _, st := range energy.States() {
				if st == energy.Overhear {
					continue
				}
				d := r.in[st]
				if want := ledger[st.String()].Time; d != want {
					t.Errorf("node %d %s: replayed %v in %v, meter %v", n.Node, x.Radio, d, st, want)
				}
				switch {
				case st == energy.WakingUp || st == energy.Idle && !freeIdle:
					replayed += p.Idle.Over(d)
				case st == energy.Rx:
					replayed += p.Rx.Over(d)
				case st == energy.Tx:
					replayed += p.Tx.Over(d)
				}
			}
			if r.wakeups != x.Wakeups {
				t.Errorf("node %d %s: replayed %d wake-ups, meter %d", n.Node, x.Radio, r.wakeups, x.Wakeups)
			}
			replayed += p.Wakeup * units.Energy(float64(r.wakeups))
			want := x.Total - ledger[energy.Overhear.String()].Energy
			if diff := math.Abs((replayed - want).Joules()); diff > 1e-9*want.Joules() {
				t.Errorf("node %d %s: replayed %v, meter %v (diff %g J)", n.Node, x.Radio, replayed, want, diff)
			}
		}
	}
}

// TestStateReplayReproducesMeters replays every model's traced state
// stream against its meters (see checkStateReplay).
func TestStateReplayReproducesMeters(t *testing.T) {
	for _, model := range []Model{ModelSensor, ModelWifi, ModelDual} {
		t.Run(model.String(), func(t *testing.T) {
			s, err := shortConfig(model, 5, 100, 1).Scenario(WithTrace(trace.Options{States: true}))
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			checkStateReplay(t, s, res)
		})
	}
}

func TestPeriodicSampling(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	res := tracedRun(t, cfg, trace.Options{SampleEvery: 30 * time.Second})
	samples := res.Trace.Samples
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// 300 s / 30 s = 10 ticks (RunUntil processes events at the
	// deadline itself), 36 nodes x 2 radios each.
	wantTicks := int(testDuration / (30 * time.Second))
	wantPerTick := cfg.Nodes * 2
	if len(samples) != wantTicks*wantPerTick {
		t.Errorf("got %d samples, want %d ticks x %d radios = %d",
			len(samples), wantTicks, wantPerTick, wantTicks*wantPerTick)
	}
	// Cumulative energy never decreases per radio.
	lastE := make(map[[2]string]float64)
	for _, s := range samples {
		key := [2]string{s.Radio, string(rune(s.Node))}
		if e := s.Energy.Joules(); e < lastE[key] {
			t.Fatalf("cumulative energy decreased for node %d %s", s.Node, s.Radio)
		} else {
			lastE[key] = e
		}
	}
	// Sampling settles meters mid-run; totals may move by float ulps
	// but no further.
	plain := mustRun(t, cfg)
	if diff := math.Abs(plain.TotalEnergy.Joules() - res.TotalEnergy.Joules()); diff > 1e-9 {
		t.Errorf("sampling shifted TotalEnergy by %g J", diff)
	}
}

func TestTraceExportStability(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	opts := trace.Options{Packets: true, SampleEvery: time.Minute}
	a := tracedRun(t, cfg, opts)
	b := tracedRun(t, cfg, opts)
	if len(a.Trace.Events) != len(b.Trace.Events) {
		t.Fatalf("event counts diverged across identical runs: %d vs %d",
			len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
	ta := metrics.EnergyBreakdownTable(a.PerNode)
	tb := metrics.EnergyBreakdownTable(b.PerNode)
	if !bytes.Equal([]byte(ta), []byte(tb)) {
		t.Error("breakdown tables diverged across identical runs")
	}
}
