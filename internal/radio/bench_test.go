package radio

import (
	"testing"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
)

// BenchmarkBroadcastDomain measures one transmission delivered to a full
// 36-node broadcast domain (the multi-hop case's single collision
// domain).
func BenchmarkBroadcastDomain(b *testing.B) {
	sched := sim.NewScheduler(1)
	layout, err := topo.Grid(36, 200)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewChannel(sched, Config{
		Name:       "wifi",
		Profile:    energy.Cabletron(),
		Range:      300, // everyone hears everyone
		HeaderSize: 58,
	}, layout)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]*Transceiver, 36)
	for i := range xs {
		if xs[i], err = ch.Attach(NodeID(i), OverhearFull, true); err != nil {
			b.Fatal(err)
		}
	}
	f := Frame{Kind: KindData, Dst: 1, Size: 1082}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := xs[0].Transmit(f); err != nil {
			b.Fatal(err)
		}
		sched.Run()
	}
}

// BenchmarkMeterTransition measures the energy-accounting hot path.
func BenchmarkMeterTransition(b *testing.B) {
	sched := sim.NewScheduler(1)
	m := energy.NewMeter(energy.Micaz(), sched.Clock())
	states := []energy.State{energy.Idle, energy.Rx, energy.Tx}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transition(states[i%len(states)])
	}
}
