package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps the repository's BENCHMARK.json
// in step with the metrics and workloads the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	check := func(section string, got []entry, want []unitOf) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, harness reports %d", section, len(got), len(want))
			return
		}
		for i, u := range want {
			if got[i].Name != u.name || got[i].Unit != u.unit {
				t.Errorf("%s[%d] = %s (%s), harness reports %s (%s)", section, i, got[i].Name, got[i].Unit, u.name, u.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndUnits)
	check("per_layer", doc.PerLayer, perLayerUnits)
}
