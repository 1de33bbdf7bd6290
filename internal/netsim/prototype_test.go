package netsim_test

import (
	"testing"

	"bulktx/internal/mote"
	"bulktx/internal/netsim"
	"bulktx/internal/trace"
	"bulktx/internal/units"
)

// TestStateReplayReproducesPrototypeMeters replays the Section 4.2
// prototype's dual run, a capped transfer ending in a flush, against
// its meters (see checkStateReplay).
func TestStateReplayReproducesPrototypeMeters(t *testing.T) {
	for _, c := range []struct {
		threshold units.ByteSize
		messages  int
	}{{750, 37}, {2000, 500}} {
		cfg := mote.DefaultConfig(c.threshold)
		cfg.Messages = c.messages
		s, err := mote.Scenario(cfg, netsim.ModelDual, netsim.WithTrace(trace.Options{States: true}))
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
