package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/params"
	"bulktx/internal/topo"
	"bulktx/internal/units"
	"testing/quick"
)

// Scaled-down scenario constants: 300 s instead of 5000 s keeps each test
// run under a second while preserving every qualitative shape (verified
// against the full-length runs recorded in EXPERIMENTS.md).
const testDuration = 300 * time.Second

func shortConfig(model Model, senders, burst int, seed int64) Config {
	cfg := DefaultConfig(model, senders, burst, seed)
	cfg.Duration = testDuration
	cfg.Rate = params.HighRate
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%v): %v", cfg.Model, err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	good := shortConfig(ModelDual, 5, 100, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad model", func(c *Config) { c.Model = 0 }},
		{"one node", func(c *Config) { c.Nodes = 1 }},
		{"zero field", func(c *Config) { c.Field = 0 }},
		{"zero senders", func(c *Config) { c.Senders = 0 }},
		{"too many senders", func(c *Config) { c.Senders = c.Nodes }},
		{"zero rate", func(c *Config) { c.Rate = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"dual needs burst", func(c *Config) { c.BurstPackets = 0 }},
		{"bad loss", func(c *Config) { c.SensorLoss = 1 }},
		{"bad wifi loss", func(c *Config) { c.WifiLoss = -0.1 }},
		{"negative min grant", func(c *Config) { c.MinGrantPackets = -1 }},
		{"negative messages", func(c *Config) { c.Messages = -1 }},
		{"capped poisson", func(c *Config) { c.Traffic, c.Messages = TrafficPoisson, 10 }},
		{"capped on-off", func(c *Config) { c.Traffic, c.Messages = TrafficOnOff, 10 }},
		{"NaN rate", func(c *Config) { c.Rate = units.BitRate(math.NaN()) }},
		{"infinite rate", func(c *Config) { c.Rate = units.BitRate(math.Inf(1)) }},
		{"prototype zero interval", func(c *Config) { *c = PrototypeConfig(ModelDual, 2000, 100, 0) }},
		{"NaN loss", func(c *Config) { c.SensorLoss = math.NaN() }},
		{"NaN wifi loss", func(c *Config) { c.WifiLoss = math.NaN() }},
		{"NaN adaptive alpha", func(c *Config) { c.AdaptiveThresholdAlpha = math.NaN() }},
		{"infinite adaptive alpha", func(c *Config) { c.AdaptiveThresholdAlpha = math.Inf(1) }},
		{"NaN churn", func(c *Config) { c.ChurnRate = math.NaN() }},
		{"infinite churn", func(c *Config) { c.ChurnRate = math.Inf(1) }},
		{"negative churn downtime", func(c *Config) { c.ChurnMeanDowntime = -time.Second }},
		{"churn schedule too long", func(c *Config) { c.ChurnRate, c.ChurnMeanDowntime = 1e9, time.Nanosecond }},
		{"NaN field", func(c *Config) { c.Field = units.Meters(math.NaN()) }},
		{"infinite field", func(c *Config) { c.Field = units.Meters(math.Inf(1)) }},
		{"NaN wifi range", func(c *Config) { c.WifiRange = units.Meters(math.NaN()) }},
		{"zero sensor profile", func(c *Config) { c.SensorProfile = energy.Profile{} }},
		{"zero wifi profile", func(c *Config) { c.WifiProfile = energy.Profile{} }},
		{"sink past nodes", func(c *Config) { c.Sink = 99 }},
		{"sink at nodes", func(c *Config) { c.Sink = c.Nodes }},
		{"more clusters than nodes", func(c *Config) { c.Topology, c.Clusters = TopoClustered, 50 }},
		{"default clusters exceed nodes", func(c *Config) {
			c.Topology, c.Nodes, c.Senders = TopoClustered, 3, 1
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := good
			tt.mutate(&c)
			err := c.Validate()
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("Validate = %v, want a FieldError", err)
			}
			// Scenario rejects it with Validate's error.
			_, serr := c.Scenario()
			var sfe *FieldError
			if !errors.As(serr, &sfe) || sfe.Field != fe.Field || serr.Error() != err.Error() {
				t.Errorf("Scenario = %v, want Validate's %v", serr, err)
			}
		})
	}
}

func TestModelString(t *testing.T) {
	if ModelSensor.String() != "sensor" || ModelWifi.String() != "802.11" ||
		ModelDual.String() != "dual-radio" {
		t.Error("model names wrong")
	}
	if Model(9).String() != "Model(9)" {
		t.Error("unknown model name wrong")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 77)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Goodput() != b.Goodput() || a.TotalEnergy != b.TotalEnergy ||
		a.Events != b.Events {
		t.Errorf("same seed diverged: %+v vs %+v", a.RunResult, b.RunResult)
	}
	c := mustRun(t, shortConfig(ModelDual, 5, 100, 78))
	if a.Events == c.Events && a.TotalEnergy == c.TotalEnergy {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestSensorModelDelivers(t *testing.T) {
	res := mustRun(t, shortConfig(ModelSensor, 5, 0, 1))
	if g := res.Goodput(); g < 0.95 {
		t.Errorf("sensor goodput at 5 senders = %.3f, want ~1", g)
	}
	if res.MeanDelay() > time.Second {
		t.Errorf("sensor delay = %v, want sub-second (no buffering)", res.MeanDelay())
	}
	if res.IdealEnergy >= res.TotalEnergy {
		t.Error("ideal energy not below header-model energy")
	}
}

func TestWifiModelDeliversButBurnsEnergy(t *testing.T) {
	wifi := mustRun(t, shortConfig(ModelWifi, 5, 0, 1))
	sensor := mustRun(t, shortConfig(ModelSensor, 5, 0, 1))
	if g := wifi.Goodput(); g < 0.99 {
		t.Errorf("802.11 goodput = %.3f, want ~1", g)
	}
	// "the IEEE 802.11 model has very high energy consumption": orders of
	// magnitude above the sensor model due to idling.
	if wifi.NormalizedEnergy() < 50*sensor.NormalizedEnergy() {
		t.Errorf("802.11 normE %.4f not far above sensor %.4f",
			wifi.NormalizedEnergy(), sensor.NormalizedEnergy())
	}
}

func TestPaperShapeSingleHopEnergy(t *testing.T) {
	// Figure 6: DualRadio-500 beats the sensor models; DualRadio-10 does
	// not save energy.
	sensor := mustRun(t, shortConfig(ModelSensor, 10, 0, 1))
	dual10 := mustRun(t, shortConfig(ModelDual, 10, 10, 1))
	dual500 := mustRun(t, shortConfig(ModelDual, 10, 500, 1))

	sensorIdeal := sensor.RunResult
	sensorIdeal.TotalEnergy = sensor.IdealEnergy

	if dual500.NormalizedEnergy() >= sensor.NormalizedEnergy() {
		t.Errorf("DualRadio-500 %.4f not below Sensor-header %.4f",
			dual500.NormalizedEnergy(), sensor.NormalizedEnergy())
	}
	if dual10.NormalizedEnergy() <= sensor.NormalizedEnergy() {
		t.Errorf("DualRadio-10 %.4f unexpectedly below Sensor-header %.4f (below s*)",
			dual10.NormalizedEnergy(), sensor.NormalizedEnergy())
	}
}

func TestPaperShapeSingleHopGoodput(t *testing.T) {
	// Figure 5: small bursts track the 802.11 model; large bursts degrade
	// goodput through buffering.
	d100 := mustRun(t, shortConfig(ModelDual, 10, 100, 1))
	d1000 := mustRun(t, shortConfig(ModelDual, 10, 1000, 1))
	if d100.Goodput() < 0.9 {
		t.Errorf("DualRadio-100 goodput = %.3f, want > 0.9", d100.Goodput())
	}
	if d1000.Goodput() >= d100.Goodput() {
		t.Errorf("DualRadio-1000 goodput %.3f not below DualRadio-100 %.3f",
			d1000.Goodput(), d100.Goodput())
	}
}

func TestPaperShapeDelayGrowsWithBurst(t *testing.T) {
	// Figures 7/10: delay grows with the burst size.
	prev := time.Duration(0)
	for _, b := range []int{10, 100, 500} {
		res := mustRun(t, shortConfig(ModelDual, 5, b, 1))
		if res.MeanDelay() <= prev {
			t.Errorf("burst %d delay %v not above smaller burst's %v",
				b, res.MeanDelay(), prev)
		}
		prev = res.MeanDelay()
	}
}

func TestPaperShapeMultiHop(t *testing.T) {
	// Figures 8/9: the sensor model's goodput collapses at high sender
	// counts; the dual model stays high and beats Sensor-ideal energy.
	sensorCfg := MultiHopConfig(35, 10, 1)
	sensorCfg.Model = ModelSensor
	sensorCfg.Duration = testDuration
	sensor := mustRun(t, sensorCfg)

	dualCfg := MultiHopConfig(35, 500, 1)
	dualCfg.Duration = testDuration
	dual := mustRun(t, dualCfg)

	if sensor.Goodput() > 0.7 {
		t.Errorf("sensor goodput at 35 senders = %.3f, want collapse (< 0.7)",
			sensor.Goodput())
	}
	if dual.Goodput() < 0.8 {
		t.Errorf("dual goodput at 35 senders = %.3f, want > 0.8", dual.Goodput())
	}
	sensorIdeal := sensor.RunResult
	sensorIdeal.TotalEnergy = sensor.IdealEnergy
	if dual.NormalizedEnergy() >= sensorIdeal.NormalizedEnergy() {
		t.Errorf("MH dual-500 %.4f not below Sensor-ideal %.4f",
			dual.NormalizedEnergy(), sensorIdeal.NormalizedEnergy())
	}
}

func TestMultiHopUsesOneWifiHop(t *testing.T) {
	cfg := MultiHopConfig(5, 100, 1)
	cfg.Duration = testDuration
	res := mustRun(t, cfg)
	// One-hop wifi: no store-and-forward, so no packets re-buffered.
	if res.AgentStats.PacketsForwarded != 0 {
		t.Errorf("MH case forwarded %d packets, want 0 (one-hop wifi)",
			res.AgentStats.PacketsForwarded)
	}
	if res.Goodput() < 0.9 {
		t.Errorf("MH goodput = %.3f, want > 0.9", res.Goodput())
	}
}

func TestShortcutLearnerAblation(t *testing.T) {
	// With learning enabled the dual model starts from sensor-tree hops
	// and converges to long wifi hops; it must still deliver.
	cfg := MultiHopConfig(5, 100, 1)
	cfg.Duration = testDuration
	cfg.UseShortcutLearner = true
	res := mustRun(t, cfg)
	if res.Goodput() < 0.85 {
		t.Errorf("learner goodput = %.3f, want > 0.85", res.Goodput())
	}
	// Early bursts relay store-and-forward before shortcuts kick in.
	if res.AgentStats.PacketsForwarded == 0 {
		t.Error("learner never forwarded (should start on sensor-tree hops)")
	}
}

func TestLossyChannelsStillDeliver(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	cfg.SensorLoss = 0.2
	cfg.WifiLoss = 0.05
	res := mustRun(t, cfg)
	if res.Goodput() < 0.7 {
		t.Errorf("goodput under loss = %.3f, want > 0.7", res.Goodput())
	}
}

func TestPickSenders(t *testing.T) {
	five := pickSenders(36, 14, 5)
	ten := pickSenders(36, 14, 10)
	if len(five) != 5 || len(ten) != 10 {
		t.Fatalf("sender counts %d/%d", len(five), len(ten))
	}
	// Nested subsets: the 5-sender set prefixes the 10-sender set.
	for i, s := range five {
		if ten[i] != s {
			t.Errorf("sender sets not nested at %d: %v vs %v", i, five, ten)
		}
	}
	for _, s := range ten {
		if s == 14 {
			t.Error("sink selected as sender")
		}
	}
}

func TestDefaultSinkNearCenter(t *testing.T) {
	cfg := shortConfig(ModelSensor, 5, 0, 1)
	res := mustRun(t, cfg)
	_ = res
	// Indirect check: the default sink of the 6x6 grid must allow a
	// Cabletron radio (250 m) to reach it from every node, the paper's MH
	// premise.
	layout, err := topoGridForTest()
	if err != nil {
		t.Fatal(err)
	}
	sink := defaultSink(layout)
	for i := 0; i < layout.Len(); i++ {
		d := distanceForTest(layout, i, sink)
		if d > 250 {
			t.Errorf("node %d is %.0f m from default sink: MH premise broken", i, d)
		}
	}
}

func topoGridForTest() (*topo.Layout, error) {
	return topo.Grid(params.GridNodes, params.FieldSize)
}

func distanceForTest(l *topo.Layout, a, b int) float64 {
	return float64(topo.Distance(l.Position(a), l.Position(b)))
}

func TestTrafficModels(t *testing.T) {
	for _, traffic := range []Traffic{TrafficCBR, TrafficPoisson, TrafficOnOff} {
		t.Run(traffic.String(), func(t *testing.T) {
			cfg := shortConfig(ModelDual, 5, 100, 1)
			cfg.Traffic = traffic
			res := mustRun(t, cfg)
			if res.GeneratedBits == 0 {
				t.Fatal("nothing generated")
			}
			if g := res.Goodput(); g < 0.8 {
				t.Errorf("%v goodput = %.3f, want > 0.8", traffic, g)
			}
		})
	}
	if TrafficCBR.String() != "cbr" || TrafficPoisson.String() != "poisson" ||
		TrafficOnOff.String() != "onoff" || Traffic(9).String() != "Traffic(9)" {
		t.Error("traffic names wrong")
	}
	bad := shortConfig(ModelDual, 5, 100, 1)
	bad.Traffic = Traffic(9)
	if err := bad.Validate(); err == nil {
		t.Error("invalid traffic model accepted")
	}
}

// Property: for arbitrary small configurations, the metrics stay within
// their physical ranges (goodput in [0,1], non-negative energies, ideal
// energy never above the header-model energy).
func TestRunInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(modelSel, senders, burst uint8, seed int64) bool {
		models := []Model{ModelSensor, ModelWifi, ModelDual}
		cfg := DefaultConfig(models[int(modelSel)%3], int(senders)%10+1,
			int(burst)%200+1, seed)
		cfg.Duration = 60 * time.Second
		cfg.Rate = params.HighRate
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		g := res.Goodput()
		return g >= 0 && g <= 1 &&
			res.TotalEnergy >= 0 &&
			res.IdealEnergy >= 0 &&
			res.IdealEnergy <= res.TotalEnergy &&
			res.DeliveredBits <= res.GeneratedBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestValidateNamesOffendingField(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		field  string
	}{
		{func(c *Config) { c.Model = 0 }, "Model"},
		{func(c *Config) { c.Nodes = 1 }, "Nodes"},
		{func(c *Config) { c.Senders = 99 }, "Senders"},
		{func(c *Config) { c.Duration = 0 }, "Duration"},
		{func(c *Config) { c.BurstPackets = 0 }, "BurstPackets"},
		{func(c *Config) { c.SensorLoss = 1.5 }, "SensorLoss"},
		{func(c *Config) { c.WifiLoss = -0.1 }, "WifiLoss"},
		{func(c *Config) { c.WifiRange = -1 }, "WifiRange"},
		{func(c *Config) { c.PostBurstLinger = -time.Millisecond }, "PostBurstLinger"},
		{func(c *Config) { c.MinGrantPackets = -1 }, "MinGrantPackets"},
		{func(c *Config) { c.AdaptiveThresholdAlpha = -1 }, "AdaptiveThresholdAlpha"},
		{func(c *Config) { c.DelayBound = -time.Second }, "DelayBound"},
		{func(c *Config) { c.ChurnRate = -1 }, "ChurnRate"},
		{func(c *Config) { c.Topology = "torus" }, "Topology"},
		{func(c *Config) { c.Rate = units.BitRate(math.Inf(1)) }, "Rate"},
		{func(c *Config) { c.SensorLoss = math.NaN() }, "SensorLoss"},
		{func(c *Config) { c.WifiLoss = math.NaN() }, "WifiLoss"},
		{func(c *Config) { c.AdaptiveThresholdAlpha = math.Inf(1) }, "AdaptiveThresholdAlpha"},
		{func(c *Config) { c.ChurnRate = math.NaN() }, "ChurnRate"},
		{func(c *Config) { c.Messages = -1 }, "Messages"},
		{func(c *Config) { c.ChurnMeanDowntime = -time.Second }, "ChurnMeanDowntime"},
		{func(c *Config) { c.ChurnRate, c.ChurnMeanDowntime = 1e9, time.Nanosecond }, "ChurnRate"},
		{func(c *Config) { c.WifiProfile.Rate = 0 }, "WifiProfile"},
		{func(c *Config) { c.Sink = 99 }, "Sink"},
		{func(c *Config) { c.Topology, c.Clusters = TopoClustered, 50 }, "Clusters"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(ModelDual, 5, 100, 1)
		tc.mutate(&cfg)
		// Building a scenario validates through the same checks, so its
		// errors name the field too.
		_, buildErr := cfg.Scenario()
		for _, err := range []error{cfg.Validate(), buildErr} {
			if err == nil {
				t.Errorf("%s: invalid config accepted", tc.field)
				continue
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Errorf("%s: error %v is not a FieldError", tc.field, err)
				continue
			}
			if fe.Field != tc.field {
				t.Errorf("error %v names field %q, want %q", err, fe.Field, tc.field)
			}
		}
	}
	if err := DefaultConfig(ModelDual, 5, 100, 1).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}
