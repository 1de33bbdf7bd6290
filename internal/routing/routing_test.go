package routing

import (
	"testing"
	"testing/quick"

	"bulktx/internal/topo"
	"bulktx/internal/units"
)

func gridLayout(t *testing.T) *topo.Layout {
	t.Helper()
	l, err := topo.Grid(36, 200)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBuildTreePaperGrid(t *testing.T) {
	l := gridLayout(t)
	tree, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Sink() != 0 || tree.Len() != 36 {
		t.Fatalf("sink=%d len=%d", tree.Sink(), tree.Len())
	}
	// Sink has no next hop.
	if _, ok := tree.NextHop(0); ok {
		t.Error("sink has a next hop")
	}
	if tree.Hops(0) != 0 {
		t.Errorf("sink hops = %d", tree.Hops(0))
	}
	// Far corner (node 35) is 10 grid hops away (5 right + 5 down).
	if got := tree.Hops(35); got != 10 {
		t.Errorf("far corner hops = %d, want 10", got)
	}
	// Every non-sink node has a next hop one hop closer.
	for i := 1; i < 36; i++ {
		nh, ok := tree.NextHop(i)
		if !ok {
			t.Fatalf("node %d has no route", i)
		}
		if tree.Hops(nh) != tree.Hops(i)-1 {
			t.Errorf("node %d next hop %d has hops %d, want %d",
				i, nh, tree.Hops(nh), tree.Hops(i)-1)
		}
	}
}

func TestBuildTreeDeterministic(t *testing.T) {
	l := gridLayout(t)
	a, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.Len(); i++ {
		na, _ := a.NextHop(i)
		nb, _ := b.NextHop(i)
		if na != nb {
			t.Fatalf("node %d: non-deterministic next hop %d vs %d", i, na, nb)
		}
	}
}

func TestBuildTreeErrors(t *testing.T) {
	l := gridLayout(t)
	if _, err := BuildTree(nil, 0, 40); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := BuildTree(l, -1, 40); err == nil {
		t.Error("negative sink accepted")
	}
	if _, err := BuildTree(l, 99, 40); err == nil {
		t.Error("out-of-range sink accepted")
	}
	if _, err := BuildTree(l, 0, 0); err == nil {
		t.Error("zero range accepted")
	}
}

func TestPathTerminatesAtSink(t *testing.T) {
	l := gridLayout(t)
	tree, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.Path(35)
	if len(p) != 11 {
		t.Fatalf("path length %d, want 11 (10 hops)", len(p))
	}
	if p[0] != 35 || p[len(p)-1] != 0 {
		t.Errorf("path endpoints %d..%d, want 35..0", p[0], p[len(p)-1])
	}
	if got := tree.Path(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Path(sink) = %v", got)
	}
}

func TestPathDisconnected(t *testing.T) {
	l := topo.NewLayout([]topo.Position{{X: 0}, {X: 1000}})
	tree, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p := tree.Path(1); p != nil {
		t.Errorf("Path of disconnected node = %v, want nil", p)
	}
	if _, ok := tree.NextHop(1); ok {
		t.Error("disconnected node has next hop")
	}
	if tree.Hops(1) != -1 {
		t.Errorf("Hops = %d, want -1", tree.Hops(1))
	}
}

func TestOnPath(t *testing.T) {
	l := gridLayout(t)
	tree, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.Path(35)
	for _, mid := range p[1:] {
		if !tree.OnPath(35, mid) {
			t.Errorf("OnPath(35, %d) = false for path member", mid)
		}
	}
	if tree.OnPath(35, 35) {
		t.Error("OnPath includes the node itself")
	}
}

func TestShortcutLinearTopology(t *testing.T) {
	// Section 2.2 scenario: 6 nodes, 40 m apart, sink at node 5 (200 m
	// from node 0). Sensor radio: 5 hops; Cabletron at 250 m: direct.
	l, err := topo.Line(6, 40)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(l, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := Shortcut(tree, l, 0, 250); got != 5 {
		t.Errorf("Shortcut at 250 m = %d, want sink 5", got)
	}
	// 100 m wifi range: node 0 reaches node 2 (80 m) but not 3 (120 m).
	if got := Shortcut(tree, l, 0, 100); got != 2 {
		t.Errorf("Shortcut at 100 m = %d, want 2", got)
	}
	// Range below one hop: falls back to the tree next hop.
	if got := Shortcut(tree, l, 0, 40); got != 1 {
		t.Errorf("Shortcut at 40 m = %d, want tree next hop 1", got)
	}
	// Sink has no shortcut.
	if got := Shortcut(tree, l, 5, 250); got != NoRoute {
		t.Errorf("Shortcut(sink) = %d, want NoRoute", got)
	}
}

func TestLearner(t *testing.T) {
	l, err := topo.Line(6, 40)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(l, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	on := NewLearner(tree, l, 250, true)
	// Before any burst: tree next hop.
	if nh, ok := on.NextHop(0); !ok || nh != 1 {
		t.Errorf("initial NextHop = %d,%v, want 1", nh, ok)
	}
	on.ObserveBurst(0)
	if !on.Learned(0) {
		t.Error("no shortcut learned after burst")
	}
	if nh, ok := on.NextHop(0); !ok || nh != 5 {
		t.Errorf("learned NextHop = %d,%v, want 5", nh, ok)
	}
	// Repeat observation is a no-op.
	on.ObserveBurst(0)
	if nh, _ := on.NextHop(0); nh != 5 {
		t.Error("second ObserveBurst changed the learned hop")
	}

	off := NewLearner(tree, l, 250, false)
	off.ObserveBurst(0)
	if off.Learned(0) {
		t.Error("disabled learner learned a shortcut")
	}
	if nh, _ := off.NextHop(0); nh != 1 {
		t.Errorf("disabled learner NextHop = %d, want 1", nh)
	}
}

// Property: on random connected layouts, every path reaches the sink in
// exactly Hops steps and hop counts decrease by one along it.
func TestTreePathsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		l, err := topo.Grid(25, 160) // 5x5, 40 m spacing: connected at 40 m
		if err != nil {
			return false
		}
		sink := int(seed%25+25) % 25
		tree, err := BuildTree(l, sink, 40)
		if err != nil {
			return false
		}
		for i := 0; i < l.Len(); i++ {
			p := tree.Path(i)
			if len(p) != tree.Hops(i)+1 {
				return false
			}
			for k := 0; k+1 < len(p); k++ {
				if tree.Hops(p[k+1]) != tree.Hops(p[k])-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: shortcuts never leave the path and never increase hop count.
func TestShortcutOnPathProperty(t *testing.T) {
	l, err := topo.Grid(36, 200)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(l, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	f := func(node uint8, rangeM uint8) bool {
		i := int(node) % 36
		if i == 0 {
			return true
		}
		r := units.Meters(40 + float64(rangeM))
		sc := Shortcut(tree, l, i, r)
		if sc == NoRoute {
			return false
		}
		return sc == mustNextHop(tree, i) || tree.OnPath(i, sc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustNextHop(tree *Tree, i int) int {
	nh, _ := tree.NextHop(i)
	return nh
}
