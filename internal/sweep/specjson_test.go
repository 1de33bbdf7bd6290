package sweep

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"bulktx/internal/netsim"
)

// The scenario axes round-trip through the JSON spec into jobs.
func TestSpecJSONScenarioAxes(t *testing.T) {
	spec, err := ParseSpecJSON([]byte(`{
		"models": ["dual"],
		"senders": [5],
		"bursts": [100],
		"topologies": ["grid", "linear"],
		"topology_seed": 9,
		"clusters": 3,
		"churn_rates": [0, 2.5],
		"churn_mean_down_s": 45,
		"runs": 2,
		"seed": 7
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.Topologies, []string{"grid", "linear"}; len(got) != 2 ||
		got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Topologies = %v", got)
	}
	if len(spec.ChurnRates) != 2 || spec.ChurnRates[1] != 2.5 {
		t.Errorf("ChurnRates = %v", spec.ChurnRates)
	}
	if spec.Base.TopologySeed != 9 || spec.Base.Clusters != 3 {
		t.Errorf("base topology fields = %d/%d", spec.Base.TopologySeed, spec.Base.Clusters)
	}
	if spec.Base.ChurnMeanDowntime != 45*time.Second {
		t.Errorf("ChurnMeanDowntime = %v", spec.Base.ChurnMeanDowntime)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 2 topologies x 2 churn rates x 2 reps.
	if len(jobs) != 8 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	if spec.Size() != len(jobs) {
		t.Errorf("Size() = %d, want %d", spec.Size(), len(jobs))
	}
	seen := map[string]bool{}
	gridJobs := 0
	for _, j := range jobs {
		if j.Point.Topology == "" {
			gridJobs++
			if key, err := Key(j.Config); err != nil || key == "" {
				t.Fatalf("grid job key: %q, %v", key, err)
			}
		}
		if j.Config.Topology != j.Point.Topology || j.Config.ChurnRate != j.Point.Churn {
			t.Errorf("job point %v disagrees with config %q/%v",
				j.Point, j.Config.Topology, j.Config.ChurnRate)
		}
		seen[j.Point.String()] = true
	}
	// "grid" normalizes to the default empty topology, so grid cells
	// carry no suffix and remain comparable (and cache-compatible) with
	// legacy sweeps.
	if gridJobs != 4 {
		t.Errorf("grid-normalized jobs = %d, want 4", gridJobs)
	}
	for _, want := range []string{
		"dual-radio/s5/b100/cbr",
		"dual-radio/s5/b100/cbr/churn2.5",
		"dual-radio/s5/b100/cbr/linear",
		"dual-radio/s5/b100/cbr/linear/churn2.5",
	} {
		if !seen[want] {
			t.Errorf("missing point %q in %v", want, seen)
		}
	}
}

func TestSpecJSONRejectsUnknownFieldsAndTopologies(t *testing.T) {
	if _, err := ParseSpecJSON([]byte(`{"topolojies": ["grid"]}`)); err == nil {
		t.Error("misspelled field accepted")
	}
	if _, err := ParseSpecJSON([]byte(`{"churn_rate": 1}`)); err == nil {
		t.Error("singular churn_rate accepted (axis is churn_rates)")
	}
	if _, err := ParseSpecJSON([]byte(`{"topologies": ["moebius"]}`)); err == nil {
		t.Error("unknown topology name accepted")
	}
}

// Cache keys must not depend on JSON field ordering of the spec
// document: two reordered documents describing the same grid produce
// identical job configurations and therefore identical content keys.
func TestCacheKeyStableAcrossFieldReordering(t *testing.T) {
	a, err := ParseSpecJSON([]byte(`{
		"topologies": ["clustered"],
		"churn_rates": [1.5],
		"senders": [5],
		"models": ["dual"],
		"bursts": [100],
		"seed": 3,
		"clusters": 2,
		"topology_seed": 11
	}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpecJSON([]byte(`{
		"topology_seed": 11,
		"clusters": 2,
		"seed": 3,
		"bursts": [100],
		"models": ["dual"],
		"senders": [5],
		"churn_rates": [1.5],
		"topologies": ["clustered"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ja) != len(jb) || len(ja) == 0 {
		t.Fatalf("job counts %d/%d", len(ja), len(jb))
	}
	for i := range ja {
		ka, err := Key(ja[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := Key(jb[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Errorf("job %d: keys differ across field reordering", i)
		}
	}
}

// Legacy configurations (no scenario axes) must keep their
// pre-redesign content keys: the new Config fields marshal to nothing
// when unset, so warm caches stay valid.
func TestCacheKeyBackwardCompatible(t *testing.T) {
	cfg := netsim.DefaultConfig(netsim.ModelDual, 5, 100, 1)
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The PR 2 content key of the default dual config (cache schema 1):
	// the scenario fields carry omitempty tags and sit after every
	// legacy field, so unset they vanish from the canonical JSON and
	// warm caches stay valid across the redesign.
	const pr2Key = "89c1c9f8ff0c63bab3db14d81b96734a8b96ae109aef0a02841421c23e490a5c"
	if key != pr2Key {
		t.Errorf("legacy content key drifted:\n got %s\nwant %s", key, pr2Key)
	}
	// A config that sets-then-clears the scenario fields keys
	// identically to one that never set them.
	touched := cfg
	touched.Topology = netsim.TopoLinear
	touched.ChurnRate = 2
	touched.Topology = ""
	touched.ChurnRate = 0
	k2, err := Key(touched)
	if err != nil {
		t.Fatal(err)
	}
	if key != k2 {
		t.Error("zeroed scenario fields changed the content key")
	}
	// And the scenario axes do change the key.
	churny := cfg
	churny.ChurnRate = 2
	k3, err := Key(churny)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == key {
		t.Error("churn rate not part of the content key")
	}
	linear := cfg
	linear.Topology = netsim.TopoLinear
	k4, err := Key(linear)
	if err != nil {
		t.Fatal(err)
	}
	if k4 == key {
		t.Error("topology not part of the content key")
	}
}

func TestSpecErrorsNameOffendingField(t *testing.T) {
	cases := []struct {
		doc   string
		field string
	}{
		{`{"case": "teleport"}`, "case"},
		{`{"models": ["zigbee"]}`, "models"},
		{`{"traffics": ["fractal"]}`, "traffics"},
		{`{"topologies": ["torus"]}`, "topologies"},
	}
	for _, tc := range cases {
		_, err := ParseSpecJSON([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.doc)
			continue
		}
		var fe *netsim.FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a FieldError", tc.doc, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q", tc.doc, fe.Field, tc.field)
		}
	}

	// Negative runs surface through Spec.Jobs with the "runs" field.
	spec := testSpec()
	spec.Runs = -2
	_, err := spec.Jobs()
	var fe *netsim.FieldError
	if !errors.As(err, &fe) || fe.Field != "runs" {
		t.Errorf("negative runs error %v does not name the runs field", err)
	}

	// Config-level failures keep their Config field names through job
	// compilation.
	spec = testSpec()
	spec.Senders = []int{0}
	_, err = spec.Jobs()
	if !errors.As(err, &fe) || fe.Field != "Senders" {
		t.Errorf("invalid senders error %v does not name the Senders field", err)
	}
}

// fuzzMaxCells bounds the grids FuzzSpecDoc compiles: larger specs
// still exercise Size, but compiling them would only slow the fuzzer.
const fuzzMaxCells = 64

// FuzzSpecDoc feeds arbitrary bytes through the sweep-spec document
// path the service and bcp-sweep take: ParseSpecJSON, Size, Jobs and
// JobKeys. Nothing may panic; Size is never negative and counts exactly
// the jobs Jobs compiles; keys are stable across compilations; and the
// document's json.Marshal encoding (what the service journals and
// replays after a restart) compiles to the same JobsKey.
func FuzzSpecDoc(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpecJSON(data)
		if err != nil {
			return
		}
		n := spec.Size()
		if n < 0 {
			t.Fatalf("Size() = %d for %s", n, data)
		}
		if n > fuzzMaxCells {
			return
		}
		jobs, err := spec.Jobs()
		if err != nil {
			return
		}
		if n != len(jobs) {
			t.Fatalf("Size() = %d, Jobs() compiled %d for %s", n, len(jobs), data)
		}
		keys, err := JobKeys(jobs)
		if err != nil {
			t.Fatalf("JobKeys: %v for %s", err, data)
		}
		again, err := spec.Jobs()
		if err != nil {
			t.Fatalf("second Jobs(): %v for %s", err, data)
		}
		if keys2, err := JobKeys(again); err != nil || !slices.Equal(keys, keys2) {
			t.Fatalf("keys changed between compilations (%v) for %s", err, data)
		}
		want, err := JobsKey(jobs)
		if err != nil {
			t.Fatalf("JobsKey: %v for %s", err, data)
		}

		var doc SpecDoc
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("SpecDoc decode failed after ParseSpecJSON succeeded: %v", err)
		}
		enc, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("re-encoding %s: %v", data, err)
		}
		var replayed SpecDoc
		if err := json.Unmarshal(enc, &replayed); err != nil {
			t.Fatalf("decoding re-encoded %s: %v", enc, err)
		}
		rspec, err := replayed.Spec()
		if err != nil {
			t.Fatalf("re-encoded %s no longer materializes: %v", enc, err)
		}
		rjobs, err := rspec.Jobs()
		if err != nil {
			t.Fatalf("re-encoded %s no longer compiles: %v", enc, err)
		}
		if got, err := JobsKey(rjobs); err != nil || got != want {
			t.Fatalf("JobsKey %s -> %s (%v) after re-encoding %s as %s", want, got, err, data, enc)
		}
	})
}
