package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"bulktx/internal/params"
)

// fingerprint hashes a Result's canonical JSON encoding; two runs share
// a fingerprint iff their outcomes are byte-identical.
func fingerprint(t *testing.T, res Result) string {
	t.Helper()
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// Golden fingerprints of the PR 2 (pre-redesign) flat-config runner:
// shortConfig(model, 5, 100, 1) and MultiHopConfig(5, 100, 1) at 300 s,
// captured on the commit before the Scenario API landed. The
// compatibility layer must reproduce them byte-for-byte.
var goldenPR2 = map[string]string{
	"sensor":   "49778f110aa4544eabd3c2f915b252002fbc0066e027eb0a174c965ed914c689",
	"wifi":     "fbc255eb0518f739c800ee14a0eaf549b3f1899a1a2720af218757df6516ebda",
	"dual":     "c6b2540b5cb64ba477a00b9b808d40dd84d782309b34951ca7545c41f74f3996",
	"multihop": "e5ba45a5ad208b417944df49d1b268745f1c50ea773c89771a7267d4abbdd11c",
}

func TestGoldenFingerprintsThroughCompatLayer(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sensor", shortConfig(ModelSensor, 5, 100, 1)},
		{"wifi", shortConfig(ModelWifi, 5, 100, 1)},
		{"dual", shortConfig(ModelDual, 5, 100, 1)},
		{"multihop", func() Config {
			c := MultiHopConfig(5, 100, 1)
			c.Duration = testDuration
			return c
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, tc.cfg)
			if got := fingerprint(t, res); got != goldenPR2[tc.name] {
				t.Errorf("fingerprint drifted from PR 2 baseline:\n got %s\nwant %s",
					got, goldenPR2[tc.name])
			}
		})
	}
}

// A config that spells out the defaults — the grid topology by name
// and the near-center sink by index — runs the same bytes as one that
// leaves them to the sentinels.
func TestGoldenFingerprintThroughExplicitScenario(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	cfg.Topology = TopoGrid
	cfg.Sink = 15 // the 6x6 grid's node nearest the centroid
	res := mustRun(t, cfg)
	if got := fingerprint(t, res); got != goldenPR2["dual"] {
		t.Errorf("explicit config diverged from the defaulted one:\n got %s\nwant %s",
			got, goldenPR2["dual"])
	}
}

// Subset property: under the default placement the 5-sender set
// prefixes the 10-sender set, on the grid and on a random topology.
func TestSenderSubsetProperty(t *testing.T) {
	for _, kind := range []string{TopoGrid, TopoUniform} {
		build := func(senders int) *Scenario {
			cfg := DefaultConfig(ModelDual, senders, 100, 1)
			cfg.Topology = kind
			if kind == TopoUniform {
				cfg.Field = 150
			}
			s, err := cfg.Scenario()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			return s
		}
		five, ten := build(5), build(10)
		a, b := five.senderIDs, ten.senderIDs
		if len(a) != 5 || len(b) != 10 {
			t.Fatalf("%s: sender counts %d/%d", kind, len(a), len(b))
		}
		for i, s := range a {
			if b[i] != s {
				t.Errorf("%s: sender sets not nested at %d: %v vs %v",
					kind, i, a, b)
			}
		}
		for _, s := range b {
			if s == ten.sinkID {
				t.Errorf("%s: sink %d selected as sender", kind, s)
			}
		}
	}
}

// scenarioDuration keeps the topology-matrix runs fast.
const scenarioDuration = 120 * time.Second

// scenarioConfig is shortConfig at scenarioDuration with burst 100 and
// seed 1.
func scenarioConfig(model Model, senders int) Config {
	cfg := shortConfig(model, senders, 100, 1)
	cfg.Duration = scenarioDuration
	return cfg
}

// All four named topology kinds run end-to-end under every model: the
// 36-node grid and line over 200 m, uniform over 150 m (connected at
// the default topology seed) and four clusters over 200 m.
func TestTopologyKindsEndToEnd(t *testing.T) {
	for _, kind := range TopologyKinds() {
		for _, model := range []Model{ModelSensor, ModelWifi, ModelDual} {
			t.Run(kind+"/"+model.String(), func(t *testing.T) {
				cfg := scenarioConfig(model, 5)
				cfg.Topology = kind
				if kind == TopoUniform {
					cfg.Field = 150
				}
				res := mustRun(t, cfg)
				if res.GeneratedBits == 0 {
					t.Fatal("nothing generated")
				}
				if g := res.Goodput(); g < 0.5 {
					t.Errorf("goodput = %.3f, want > 0.5", g)
				}
				if res.TotalEnergy <= 0 {
					t.Errorf("no energy charged")
				}
			})
		}
	}
}

// The flat compatibility fields reach the same topologies.
func TestConfigTopologyFields(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	cfg.Duration = scenarioDuration
	for _, kind := range []string{TopoGrid, TopoClustered, TopoLinear} {
		cfg.Topology = kind
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.GeneratedBits == 0 || res.Goodput() < 0.5 {
			t.Errorf("%s: goodput %.3f", kind, res.Goodput())
		}
	}
	// Uniform at grid density over 200 m is partitioned at 40 m sensor
	// range: the builder must say so clearly instead of failing in
	// routing.
	cfg.Topology = TopoUniform
	cfg.TopologySeed = 2
	if _, err := Run(cfg); err == nil ||
		!strings.Contains(err.Error(), "not connected") {
		t.Errorf("partitioned uniform topology error = %v, want connectivity error", err)
	}
	cfg.Topology = "moebius"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown topology kind accepted")
	}
}

// The churn schedule never brings down the sink, stays within the run,
// and is drawn afresh for each run seed; the sink keeps collecting
// (TestConfigChurn checks that churn costs goodput).
func TestScenarioChurn(t *testing.T) {
	cfg := scenarioConfig(ModelDual, 5)
	cfg.ChurnRate = 20
	cfg.ChurnMeanDowntime = 30 * time.Second
	churny, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(churny.churnEvents) == 0 {
		t.Fatal("random churn produced no events")
	}
	for _, ev := range churny.churnEvents {
		if ev.node == churny.sinkID {
			t.Fatalf("churn schedule brings down the sink: %+v", ev)
		}
		if ev.at < 0 || ev.at > cfg.Duration {
			t.Fatalf("churn event outside run: %+v", ev)
		}
	}
	if reflect.DeepEqual(churny.withSeed(cfg.Seed+1).churnEvents, churny.churnEvents) {
		t.Error("churn schedule did not change with the run seed")
	}
	churnRes, err := RunScenario(churny)
	if err != nil {
		t.Fatal(err)
	}
	if churnRes.Goodput() <= 0 {
		t.Error("churn killed all delivery (sink should survive)")
	}
}

// Churn rates so low that the mean uptime overflows a Duration draw
// no failure in the run instead of events at negative times.
func TestTinyChurnRateSchedulesNothing(t *testing.T) {
	for _, rate := range []float64{1e-300, 1e-7} {
		cfg := scenarioConfig(ModelSensor, 5)
		cfg.ChurnRate = rate
		s, err := cfg.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.churnEvents) != 0 {
			t.Errorf("churn rate %g: %d events, first %+v", rate, len(s.churnEvents), s.churnEvents[0])
		}
		if _, err := RunScenario(s); err != nil {
			t.Errorf("churn rate %g: %v", rate, err)
		}
	}
}

// Config-level churn compiles and degrades goodput deterministically.
func TestConfigChurn(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	cfg.Duration = scenarioDuration
	calm := mustRun(t, cfg)
	cfg.ChurnRate = 20
	cfg.ChurnMeanDowntime = 60 * time.Second
	churn1 := mustRun(t, cfg)
	churn2 := mustRun(t, cfg)
	if fingerprint(t, churn1) != fingerprint(t, churn2) {
		t.Error("churny config not deterministic")
	}
	if churn1.Goodput() >= calm.Goodput() {
		t.Errorf("churn did not hurt goodput: %.3f vs %.3f",
			churn1.Goodput(), calm.Goodput())
	}
}

// Senders are bounded by the config's Nodes: 50 senders fit a 100-node
// line and not a 50-node one.
func TestNodesBoundSenders(t *testing.T) {
	cfg := DefaultConfig(ModelSensor, 50, 0, 1)
	cfg.Duration = time.Minute // a tenth of the default keeps the test quick
	cfg.Topology, cfg.Nodes, cfg.Field = TopoLinear, 100, 3960
	s, err := cfg.Scenario()
	if err != nil {
		t.Fatalf("50 senders on a 100-node line: %v", err)
	}
	if s.layout.Len() != 100 || len(s.senderIDs) != 50 {
		t.Fatalf("scenario has %d nodes and %d senders, want 100 and 50", s.layout.Len(), len(s.senderIDs))
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedBits == 0 || res.DeliveredBits == 0 {
		t.Errorf("probe run generated %d and delivered %d bits", res.GeneratedBits, res.DeliveredBits)
	}
	cfg.Nodes, cfg.Field = 50, 1960
	_, err = cfg.Scenario()
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "Senders" || err.Error() != "netsim: invalid Senders: senders 50 outside [1, 50)" {
		t.Errorf("50 senders on a 50-node line: %v, want a Senders FieldError", err)
	}
}

// Beyond Validate's FieldErrors (TestConfigValidate,
// TestValidateNamesOffendingField), the builder fails only on a layout
// that is not connected at the radio range its model routes over.
func TestScenarioBuildValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"sparse line":         func(c *Config) { c.Topology, c.Field = TopoLinear, 36*41 },
		"sparse grid":         func(c *Config) { c.Field = 300 },
		"wifi on sparse grid": func(c *Config) { c.Model, c.Field = ModelWifi, 300 },
	} {
		cfg := DefaultConfig(ModelDual, 5, 100, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: Validate = %v, want nil", name, err)
		}
		_, err := cfg.Scenario()
		if err == nil || !strings.Contains(err.Error(), "is not connected") {
			t.Errorf("%s: Scenario = %v, want the connectivity error", name, err)
		}
	}
	// The paper's default config builds: 36 grid nodes, the sink
	// nearest the centroid, 5 senders.
	s, err := DefaultConfig(ModelDual, 5, 100, 1).Scenario()
	if err != nil {
		t.Fatalf("default scenario: %v", err)
	}
	if s.layout.Len() != params.GridNodes || s.sinkID != 15 || len(s.senderIDs) != 5 {
		t.Errorf("default scenario shape wrong: %d nodes, sink %d, %d senders",
			s.layout.Len(), s.sinkID, len(s.senderIDs))
	}
}

// An explicit Config.Sink moves the sink, and the stable shuffle picks
// the senders around it.
func TestExplicitSink(t *testing.T) {
	cfg := scenarioConfig(ModelSensor, 5)
	cfg.Sink = 0
	s, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.sinkID != 0 {
		t.Errorf("sink = %d, want 0", s.sinkID)
	}
	if got, want := s.senderIDs, pickSenders(36, 0, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("senders = %v, want %v", got, want)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput() < 0.5 {
		t.Errorf("goodput = %.3f", res.Goodput())
	}
}

func TestRunScenarioMany(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	cfg.Duration = 100 * time.Second
	cfg.ChurnRate = 20
	cfg.ChurnMeanDowntime = 10 * time.Second
	s, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunScenarioMany(s, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for r := range results {
		rep := s.withSeed(10 + int64(r))
		// Each repetition draws the churn its seed's config draws.
		c := cfg
		c.Seed = 10 + int64(r)
		fresh, err := c.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.churnEvents, fresh.churnEvents) {
			t.Errorf("rep %d: churn schedule differs from its seed's config", r)
		}
		res, err := RunScenario(rep)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, res) != fingerprint(t, results[r]) {
			t.Errorf("rep %d: parallel result differs from serial", r)
		}
	}
	goodput, normE, idealE, delay := Summaries(results)
	if goodput.N != 3 || normE.N != 3 || idealE.N != 3 {
		t.Errorf("summaries N wrong: %d/%d/%d", goodput.N, normE.N, idealE.N)
	}
	if goodput.Mean <= 0 || goodput.Mean > 1 {
		t.Errorf("goodput mean = %v", goodput.Mean)
	}
	if delay <= 0 {
		t.Errorf("delay = %v", delay)
	}
	if _, err := RunScenarioMany(s, 0, 1); err == nil {
		t.Error("RunScenarioMany(0) did not error")
	}
}

// Rep r of RunScenarioMany(cfg.Scenario(), n, base) is Run(cfg) at
// seed base+r, byte for byte: churn drawn from Config.ChurnRate is
// drawn again for each seed, as Run draws it.
func TestRunScenarioManyMatchesRun(t *testing.T) {
	const base = 1
	plain := shortConfig(ModelDual, 5, 100, base)
	plain.Duration = 100 * time.Second
	lossy := plain
	lossy.SensorLoss, lossy.WifiLoss = 0.05, 0.05
	churn := plain
	churn.ChurnRate = 20
	churn.ChurnMeanDowntime = 10 * time.Second
	for name, cfg := range map[string]Config{"plain": plain, "lossy": lossy, "churn": churn} {
		t.Run(name, func(t *testing.T) {
			s, err := cfg.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			many, err := RunScenarioMany(s, 3, base)
			if err != nil {
				t.Fatal(err)
			}
			for r, got := range many {
				c := cfg
				c.Seed = base + int64(r)
				want, err := json.Marshal(mustRun(t, c))
				if err != nil {
					t.Fatal(err)
				}
				enc, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc, want) {
					t.Errorf("rep %d differs from Run at seed %d", r, c.Seed)
				}
			}
		})
	}
}
