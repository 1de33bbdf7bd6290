package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bulktx/internal/params"
	"bulktx/internal/topo"
	"bulktx/internal/units"
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

// Parts passed explicitly that equal the ones the config's fields build
// must reproduce the same bytes (same wiring either way).
func TestGoldenFingerprintThroughExplicitScenario(t *testing.T) {
	s, err := shortConfig(ModelDual, 5, 100, 1).Scenario(
		WithTopology(GridTopology(params.GridNodes, params.FieldSize)),
		WithSink(SinkNearCenter()),
		WithSenderPolicy(StableShuffleSenders()),
		WithWorkload(CBRWorkload(params.HighRate)),
		WithLinks(LinkModel{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, res); got != goldenPR2["dual"] {
		t.Errorf("explicit scenario diverged from flat config:\n got %s\nwant %s",
			got, goldenPR2["dual"])
	}
}

// Subset property: under the default placement the 5-sender set
// prefixes the 10-sender set, on the grid and on a random topology.
func TestSenderSubsetProperty(t *testing.T) {
	for _, topol := range []Topology{
		GridTopology(36, 200),
		UniformTopology(36, 150, 1),
	} {
		five, err := DefaultConfig(ModelDual, 5, 100, 1).Scenario(WithTopology(topol))
		if err != nil {
			t.Fatalf("%s: %v", topol.Kind(), err)
		}
		ten, err := DefaultConfig(ModelDual, 10, 100, 1).Scenario(WithTopology(topol))
		if err != nil {
			t.Fatalf("%s: %v", topol.Kind(), err)
		}
		a, b := five.SenderIDs(), ten.SenderIDs()
		if len(a) != 5 || len(b) != 10 {
			t.Fatalf("%s: sender counts %d/%d", topol.Kind(), len(a), len(b))
		}
		for i, s := range a {
			if b[i] != s {
				t.Errorf("%s: sender sets not nested at %d: %v vs %v",
					topol.Kind(), i, a, b)
			}
		}
		for _, s := range b {
			if s == ten.Sink() {
				t.Errorf("%s: sink %d selected as sender", topol.Kind(), s)
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

// All four named topology kinds run end-to-end under every model.
func TestTopologyKindsEndToEnd(t *testing.T) {
	topologies := []Topology{
		GridTopology(36, 200),
		UniformTopology(36, 150, 1),
		ClusteredTopology(36, 4, 200, 25, 1),
		LinearTopology(36, 200),
	}
	for _, topol := range topologies {
		for _, model := range []Model{ModelSensor, ModelWifi, ModelDual} {
			t.Run(topol.Kind()+"/"+model.String(), func(t *testing.T) {
				s, err := scenarioConfig(model, 5).Scenario(WithTopology(topol))
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunScenario(s)
				if err != nil {
					t.Fatal(err)
				}
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

func TestScenarioChurn(t *testing.T) {
	cfg := scenarioConfig(ModelDual, 5)
	calm, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	churny, err := cfg.Scenario(WithChurn(RandomChurn(6, 30*time.Second, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(churny.ChurnEvents()) == 0 {
		t.Fatal("random churn produced no events")
	}
	for _, ev := range churny.ChurnEvents() {
		if ev.Node == churny.Sink() {
			t.Fatalf("churn schedule brings down the sink: %+v", ev)
		}
		if ev.At < 0 || ev.At > churny.Duration() {
			t.Fatalf("churn event outside run: %+v", ev)
		}
	}
	calmRes, err := RunScenario(calm)
	if err != nil {
		t.Fatal(err)
	}
	churnRes, err := RunScenario(churny)
	if err != nil {
		t.Fatal(err)
	}
	if churnRes.Goodput() >= calmRes.Goodput() {
		t.Errorf("churn did not hurt goodput: %.3f vs calm %.3f",
			churnRes.Goodput(), calmRes.Goodput())
	}
	if churnRes.Goodput() <= 0 {
		t.Error("churn killed all delivery (sink should survive)")
	}
	// Determinism: the schedule is part of the scenario.
	again, err := RunScenario(churny)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, again) != fingerprint(t, churnRes) {
		t.Error("churny scenario not deterministic")
	}
}

func TestScheduledChurnValidation(t *testing.T) {
	cfg := scenarioConfig(ModelDual, 5)
	mk := func(ev ChurnEvent) error {
		_, err := cfg.Scenario(WithChurn(ScheduledChurn(ev)))
		return err
	}
	okEv := ChurnEvent{At: time.Second, Node: 0, Down: true}
	if err := mk(okEv); err != nil {
		t.Fatalf("valid churn event rejected: %v", err)
	}
	sink, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]ChurnEvent{
		"negative time": {At: -time.Second, Node: 0, Down: true},
		"past end":      {At: scenarioDuration + time.Second, Node: 0, Down: true},
		"bad node":      {At: time.Second, Node: 99, Down: true},
		"sink":          {At: time.Second, Node: sink.Sink(), Down: true},
	} {
		if err := mk(ev); err == nil {
			t.Errorf("%s churn event accepted", name)
		}
	}
	if _, err := cfg.Scenario(WithChurn(RandomChurn(0, time.Minute, 1))); err == nil {
		t.Error("zero churn rate accepted")
	}
	if _, err := cfg.Scenario(WithChurn(RandomChurn(1, 0, 1))); err == nil {
		t.Error("zero churn downtime accepted")
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

// A topology part may hold more nodes than the config's Nodes, and the
// sender count is bounded by the layout it builds, not by Nodes.
func TestTopologyPartBoundsSenders(t *testing.T) {
	cfg := DefaultConfig(ModelSensor, 50, 0, 1)
	cfg.Duration = time.Minute // a tenth of the default keeps the test quick
	s, err := cfg.Scenario(WithTopology(LinearTopology(100, 3960)))
	if err != nil {
		t.Fatalf("50 senders on a 100-node line: %v", err)
	}
	if s.Nodes() != 100 || len(s.SenderIDs()) != 50 {
		t.Fatalf("scenario has %d nodes and %d senders, want 100 and 50", s.Nodes(), len(s.SenderIDs()))
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedBits == 0 || res.DeliveredBits == 0 {
		t.Errorf("probe run generated %d and delivered %d bits", res.GeneratedBits, res.DeliveredBits)
	}
	// The layout still bounds the count, with Validate's error.
	_, err = cfg.Scenario(WithTopology(LinearTopology(50, 1960)))
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "Senders" || err.Error() != "netsim: invalid Senders: senders 50 outside [1, 50)" {
		t.Errorf("50 senders on a 50-node line: %v, want a Senders FieldError", err)
	}
}

// Under a topology part the config's Nodes and Field go unread, so
// they go unchecked; without one they fail as before.
func TestTopologyPartIgnoresNodesAndField(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
		want   string
	}{
		{"Nodes", func(c *Config) { c.Nodes = 0 }, "netsim: invalid Nodes: need at least 2 nodes, got 0"},
		{"Field", func(c *Config) { c.Field = 0 }, "netsim: invalid Field: non-positive field 0.0 m"},
	} {
		cfg := DefaultConfig(ModelSensor, 5, 0, 1)
		cfg.Duration = time.Minute
		tc.mutate(&cfg)
		s, err := cfg.Scenario(WithTopology(LinearTopology(10, 360)))
		if err != nil {
			t.Fatalf("%s zero under a topology part: %v", tc.field, err)
		}
		res, err := RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if s.Nodes() != 10 || res.DeliveredBits == 0 {
			t.Errorf("%s zero: %d nodes, %d bits delivered", tc.field, s.Nodes(), res.DeliveredBits)
		}
		_, serr := cfg.Scenario()
		for _, err := range []error{cfg.Validate(), serr} {
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != tc.field || err.Error() != tc.want {
				t.Errorf("%s zero without a topology part: %v, want %q", tc.field, err, tc.want)
			}
		}
	}
}

// A workload, links or churn part replaces config fields the way a
// topology part replaces Nodes and Field: the replaced fields go
// unchecked, so these configs build and run under the part, and fail
// Validate and Scenario() with the same FieldError without it.
func TestPartsIgnoreReplacedFields(t *testing.T) {
	churn := WithChurn(ScheduledChurn(ChurnEvent{At: 10 * time.Second, Node: 0, Down: true}))
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		part   Option
		field  string
		want   string
	}{
		{"zero rate", func(c *Config) { c.Rate = 0 }, WithWorkload(CBRWorkload(2000)),
			"Rate", "netsim: invalid Rate: non-positive rate 0 bps"},
		{"unknown traffic", func(c *Config) { c.Traffic = 9 }, WithWorkload(CBRWorkload(2000)),
			"Traffic", "netsim: invalid Traffic: unknown traffic model 9"},
		{"capped poisson config", func(c *Config) { c.Traffic, c.Messages = TrafficPoisson, 5 }, WithWorkload(CBRWorkload(2000)),
			"Messages", "netsim: invalid Messages: only CBR traffic can be capped at 5 messages"},
		{"sensor loss 1.5", func(c *Config) { c.SensorLoss = 1.5 }, WithLinks(LinkModel{}),
			"SensorLoss", "netsim: invalid SensorLoss: loss probability 1.5 outside [0,1)"},
		{"wifi loss NaN", func(c *Config) { c.WifiLoss = math.NaN() }, WithLinks(LinkModel{}),
			"WifiLoss", "netsim: invalid WifiLoss: loss probability NaN outside [0,1)"},
		{"negative churn rate", func(c *Config) { c.ChurnRate = -1 }, churn,
			"ChurnRate", "netsim: invalid ChurnRate: negative churn rate -1"},
		{"infinite churn rate", func(c *Config) { c.ChurnRate = math.Inf(1) }, churn,
			"ChurnRate", "netsim: invalid ChurnRate: non-finite churn rate +Inf"},
		{"negative churn downtime", func(c *Config) { c.ChurnMeanDowntime = -time.Second }, churn,
			"ChurnMeanDowntime", "netsim: invalid ChurnMeanDowntime: negative churn downtime -1s"},
	} {
		cfg := DefaultConfig(ModelSensor, 5, 0, 1)
		cfg.Duration = time.Minute
		tc.mutate(&cfg)
		s, err := cfg.Scenario(tc.part)
		if err != nil {
			t.Fatalf("%s under its part: %v", tc.name, err)
		}
		res, err := RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredBits == 0 {
			t.Errorf("%s under its part delivered nothing", tc.name)
		}
		_, serr := cfg.Scenario()
		for _, err := range []error{cfg.Validate(), serr} {
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != tc.field || err.Error() != tc.want {
				t.Errorf("%s without its part: %v, want %q", tc.name, err, tc.want)
			}
		}
	}
}

// The builder validates the parts and the resolved layout; scalar
// fields are Config.Validate's (TestConfigValidate,
// TestValidateNamesOffendingField).
func TestScenarioBuildValidation(t *testing.T) {
	cases := map[string][]Option{
		"nil topology":      {WithTopology(nil)},
		"nil sink":          {WithSink(nil)},
		"nil senders":       {WithSenderPolicy(nil)},
		"one node":          {WithTopology(ExplicitTopology(topo.Position{}))},
		"senders exceed":    {WithTopology(LinearTopology(4, 100))},
		"sink out of range": {WithSink(SinkAt(99))},
		"sender is sink":    {WithSink(SinkAt(3)), WithSenderPolicy(ExplicitSenders(3))},
		"duplicate sender":  {WithSenderPolicy(ExplicitSenders(1, 1))},
		"no senders":        {WithSenderPolicy(ExplicitSenders())},
		"zero rate":         {WithWorkload(CBRWorkload(0))},
		"bad per-sender rate": {WithWorkload(Workload{
			Traffic: TrafficCBR, Rates: []units.BitRate{2000, 0}})},
		"bad traffic":   {WithWorkload(Workload{Traffic: Traffic(9), Rate: 2000})},
		"bad loss":      {WithLinks(LinkModel{SensorLoss: 1})},
		"bad wifi loss": {WithLinks(LinkModel{WifiLoss: -0.1})},
	}
	cfg := DefaultConfig(ModelDual, 5, 100, 1)
	for name, parts := range cases {
		if _, err := cfg.Scenario(parts...); err == nil {
			t.Errorf("%s: Scenario accepted invalid parts", name)
		}
	}
	// A message cap needs CBR arrivals from a workload part too, with
	// Validate's error for a capped non-CBR config.
	capped := cfg
	capped.Messages = 10
	_, err := capped.Scenario(WithWorkload(PoissonWorkload(2000)))
	capped.Traffic = TrafficPoisson
	if want := capped.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("capped config with a Poisson part: %v, want %v", err, want)
	}
	// The paper's default config builds without any part.
	s, err := cfg.Scenario()
	if err != nil {
		t.Fatalf("default scenario: %v", err)
	}
	if s.Nodes() != params.GridNodes || len(s.SenderIDs()) != 5 ||
		s.TopologyKind() != TopoGrid {
		t.Errorf("default scenario shape wrong: %d nodes, %d senders, %q",
			s.Nodes(), len(s.SenderIDs()), s.TopologyKind())
	}
}

func TestExplicitSendersAndSink(t *testing.T) {
	// Config.Senders is 5, but an explicit set carries its own count.
	s, err := scenarioConfig(ModelSensor, 5).Scenario(
		WithSink(SinkAt(0)),
		WithSenderPolicy(ExplicitSenders(35, 30, 5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sink() != 0 {
		t.Errorf("sink = %d, want 0", s.Sink())
	}
	got := s.SenderIDs()
	if len(got) != 3 || got[0] != 35 || got[1] != 30 || got[2] != 5 {
		t.Errorf("senders = %v, want [35 30 5]", got)
	}
	res, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput() < 0.5 {
		t.Errorf("goodput = %.3f", res.Goodput())
	}
}

func TestFarthestSenders(t *testing.T) {
	s, err := DefaultConfig(ModelDual, 4, 100, 1).Scenario(WithSenderPolicy(FarthestSenders()))
	if err != nil {
		t.Fatal(err)
	}
	// Every selected node must be at least as far from the sink as every
	// unselected node, and the selection must come farthest-first.
	got := s.SenderIDs()
	l := s.Layout()
	sp := l.Position(s.Sink())
	selected := make(map[int]bool, len(got))
	minSel := units.Meters(-1)
	prev := units.Meters(-1)
	for _, id := range got {
		d := topo.Distance(l.Position(id), sp)
		if prev >= 0 && d > prev {
			t.Errorf("farthest senders %v not in descending distance order", got)
		}
		prev = d
		if minSel < 0 || d < minSel {
			minSel = d
		}
		selected[id] = true
	}
	for i := 0; i < l.Len(); i++ {
		if i == s.Sink() || selected[i] {
			continue
		}
		if d := topo.Distance(l.Position(i), sp); d > minSel {
			t.Errorf("unselected node %d (d=%v) farther than selected minimum %v",
				i, d, minSel)
		}
	}
}

// Heterogeneous per-sender rates tile over the sender set and shape the
// generated volume accordingly.
func TestHeterogeneousRates(t *testing.T) {
	cfg := scenarioConfig(ModelSensor, 4)
	uniform, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := cfg.Scenario(WithWorkload(Workload{
		Traffic: TrafficCBR,
		Rates:   []units.BitRate{params.HighRate, params.HighRate / 10},
	}))
	if err != nil {
		t.Fatal(err)
	}
	u, err := RunScenario(uniform)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunScenario(mixed)
	if err != nil {
		t.Fatal(err)
	}
	// Two of four senders run at a tenth the rate: generated volume must
	// land near 55% of the homogeneous case.
	frac := float64(m.GeneratedBits) / float64(u.GeneratedBits)
	if frac < 0.45 || frac > 0.65 {
		t.Errorf("mixed-rate generated fraction = %.3f, want ~0.55", frac)
	}
	if m.Goodput() < 0.9 {
		t.Errorf("mixed-rate goodput = %.3f", m.Goodput())
	}
}

// Distance-dependent loss loses more than a lossless channel and keeps
// the run deterministic.
func TestDistanceDependentLoss(t *testing.T) {
	cfg := scenarioConfig(ModelSensor, 5)
	clean, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := cfg.Scenario(WithLinks(LinkModel{SensorLossAt: DistanceLoss(0, 0.4, 40)}))
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := RunScenario(clean)
	if err != nil {
		t.Fatal(err)
	}
	lossyRes, err := RunScenario(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if lossyRes.SensorStats.NoiseLosses == 0 {
		t.Error("distance loss model lost nothing (grid links are at full range)")
	}
	if cleanRes.SensorStats.NoiseLosses != 0 {
		t.Error("clean channel recorded noise losses")
	}
	if lossyRes.Goodput() > cleanRes.Goodput() {
		t.Errorf("lossy goodput %.3f above clean %.3f",
			lossyRes.Goodput(), cleanRes.Goodput())
	}
	again, err := RunScenario(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, again) != fingerprint(t, lossyRes) {
		t.Error("distance-loss run not deterministic")
	}
}

func TestRunScenarioMany(t *testing.T) {
	cfg := shortConfig(ModelDual, 5, 100, 1)
	cfg.Duration = 100 * time.Second
	s, err := cfg.Scenario(WithChurn(RandomChurn(20, 10*time.Second, 7)))
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
		rep, err := s.withSeed(10 + int64(r))
		if err != nil {
			t.Fatal(err)
		}
		// A churn part keeps its schedule across repetitions.
		if !reflect.DeepEqual(rep.ChurnEvents(), s.ChurnEvents()) {
			t.Errorf("rep %d: churn part's schedule changed with the run seed", r)
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
