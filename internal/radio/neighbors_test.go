package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// TestNeighborIndexMatchesBruteForce checks the channel's lazily
// memoized spatial-hash neighbor rows against brute-force InRange
// enumeration: random layouts of varying density, plus clustered,
// co-located, all-out-of-range and N <= 3 layouts at tiny, paper-scale
// and field-spanning ranges. Rows must hold exactly the in-range IDs,
// ascending, self excluded, and stay the same on repeat lookup.
func TestNeighborIndexMatchesBruteForce(t *testing.T) {
	check := func(name string, layout *topo.Layout, r units.Meters) {
		t.Helper()
		cfg := Config{Name: "test", Profile: energy.Micaz(), Range: r}
		ch, err := NewChannel(sim.NewScheduler(1), cfg, layout)
		if err != nil {
			t.Fatalf("%s: NewChannel: %v", name, err)
		}
		for i := 0; i < layout.Len(); i++ {
			var want []NodeID
			for j := 0; j < layout.Len(); j++ {
				if j != i && ch.InRange(NodeID(i), NodeID(j)) {
					want = append(want, NodeID(j))
				}
			}
			got := ch.Neighbors(NodeID(i))
			if !slices.Equal(got, want) {
				t.Fatalf("%s r=%v node %d: index %v, brute force %v", name, r, i, got, want)
			}
			if again := ch.Neighbors(NodeID(i)); !slices.Equal(again, got) {
				t.Fatalf("%s r=%v node %d: memoized row changed from %v to %v", name, r, i, got, again)
			}
		}
	}

	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 2 + rng.Intn(60)
		field := units.Meters(50 + rng.Float64()*250)
		layout, err := topo.Random(n, field, rng)
		if err != nil {
			t.Fatalf("Random layout: %v", err)
		}
		check(fmt.Sprintf("random trial %d", trial), layout, units.Meters(10+rng.Float64()*100))
	}

	rng := rand.New(rand.NewSource(31))
	colocated := make([]topo.Position, 12)
	for i := range colocated {
		colocated[i] = topo.Position{X: 5, Y: 9}
	}
	mk := func(l *topo.Layout, err error) *topo.Layout {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, tc := range []struct {
		name   string
		layout *topo.Layout
	}{
		{"random", mk(topo.Random(80, 250, rng))},
		{"clustered", mk(topo.Clustered(120, 5, 300, 15, rng))},
		{"colocated", topo.NewLayout(colocated)},
		{"sparse", mk(topo.Random(30, 100000, rng))}, // all out of range
		{"pair", mk(topo.Grid(2, 100))},
		{"triple", mk(topo.Grid(3, 100))},
		{"single", mk(topo.Grid(1, 100))},
	} {
		// Range 0 would resolve to the profile default, so the "nobody in
		// range" case uses a tiny positive range instead.
		for _, r := range []units.Meters{0.001, 40, 500} {
			check(tc.name, tc.layout, r)
		}
	}
}

// TestBroadcastReachesExactlyNeighborSet transmits from every node of a
// random layout and checks that exactly the attached in-range nodes hear
// the frame.
func TestBroadcastReachesExactlyNeighborSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layout, err := topo.Random(25, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler(1)
	cfg := Config{Name: "test", Profile: energy.Micaz(), Range: 60}
	ch, err := NewChannel(sched, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	// Leave every third node unattached: the dense table must skip the
	// holes without delivering to (or crashing on) them.
	xcvrs := make([]*Transceiver, layout.Len())
	for i := range xcvrs {
		if i%3 == 2 {
			continue
		}
		x, err := ch.Attach(NodeID(i), OverhearFull, true)
		if err != nil {
			t.Fatal(err)
		}
		xcvrs[i] = x
	}
	heard := make(map[NodeID][]NodeID)
	for i, x := range xcvrs {
		if x == nil {
			continue
		}
		i := NodeID(i)
		x.SetOnReceive(func(f Frame) { heard[f.Src] = append(heard[f.Src], i) })
	}
	for i, x := range xcvrs {
		if x == nil {
			continue
		}
		if err := x.Transmit(Frame{Kind: KindData, Dst: Broadcast, Size: 16}); err != nil {
			t.Fatalf("Transmit from %d: %v", i, err)
		}
		sched.Run() // serialize transmissions so nothing collides
	}
	for i, x := range xcvrs {
		if x == nil {
			continue
		}
		var want []NodeID
		for _, nb := range layout.Neighbors(i, cfg.Range) {
			if xcvrs[nb] != nil {
				want = append(want, NodeID(nb))
			}
		}
		got := heard[NodeID(i)]
		if len(got) != len(want) {
			t.Fatalf("tx from %d heard by %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("tx from %d heard by %v, want %v (order must be ascending)", i, got, want)
			}
		}
	}
}

// TestLookupBounds exercises the dense-table bounds checks.
func TestLookupBounds(t *testing.T) {
	layout, err := topo.Grid(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sim.NewScheduler(1), Config{Name: "t", Profile: energy.Micaz()}, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Attach(1, OverhearFull, true); err != nil {
		t.Fatal(err)
	}
	if got := ch.Len(); got != 4 {
		t.Errorf("Len() = %d, want 4", got)
	}
	if _, ok := ch.Lookup(1); !ok {
		t.Error("Lookup(1) missed an attached node")
	}
	for _, id := range []NodeID{2, NodeID(-1), 4, 1000} {
		if _, ok := ch.Lookup(id); ok {
			t.Errorf("Lookup(%d) = true, want false", id)
		}
	}
	if got := ch.Neighbors(NodeID(-5)); got != nil {
		t.Errorf("Neighbors(-5) = %v, want nil", got)
	}
	if got := ch.Neighbors(99); got != nil {
		t.Errorf("Neighbors(99) = %v, want nil", got)
	}
	if _, err := ch.Attach(4, OverhearFull, true); err == nil {
		t.Error("Attach(4) beyond layout succeeded")
	}
	if _, err := ch.Attach(1, OverhearFull, true); err == nil {
		t.Error("duplicate Attach succeeded")
	}
}
