package routing

import (
	"reflect"
	"testing"
	"testing/quick"

	"bulktx/internal/topo"
)

func TestBuildMeshGrid(t *testing.T) {
	l := gridLayout(t)
	m, err := BuildMesh(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 36 {
		t.Fatalf("Len = %d, want 36", m.Len())
	}
	// Hop counts are symmetric on an undirected graph.
	for a := 0; a < 36; a += 7 {
		for b := 0; b < 36; b += 5 {
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Errorf("Hops(%d,%d)=%d != Hops(%d,%d)=%d",
					a, b, m.Hops(a, b), b, a, m.Hops(b, a))
			}
		}
	}
	// Corner to far corner: 10 grid hops.
	if got := m.Hops(0, 35); got != 10 {
		t.Errorf("Hops(0,35) = %d, want 10", got)
	}
	if got := m.Hops(5, 5); got != 0 {
		t.Errorf("Hops(self) = %d, want 0", got)
	}
}

func TestMeshNextHopWalk(t *testing.T) {
	l := gridLayout(t)
	m, err := BuildMesh(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Walking next hops from 35 to 0 takes exactly Hops steps.
	cur, steps := 35, 0
	for cur != 0 {
		nh, ok := m.NextHop(cur, 0)
		if !ok {
			t.Fatalf("no next hop from %d", cur)
		}
		cur = nh
		steps++
		if steps > 36 {
			t.Fatal("walk did not terminate")
		}
	}
	if steps != m.Hops(35, 0) {
		t.Errorf("walk took %d steps, Hops says %d", steps, m.Hops(35, 0))
	}
}

func TestMeshEdgeCases(t *testing.T) {
	l := gridLayout(t)
	m, err := BuildMesh(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.NextHop(3, 3); ok {
		t.Error("NextHop to self returned a route")
	}
	if _, ok := m.NextHop(-1, 3); ok {
		t.Error("NextHop from invalid node returned a route")
	}
	if _, ok := m.NextHop(3, 99); ok {
		t.Error("NextHop to invalid node returned a route")
	}
	if got := m.Hops(-1, 3); got != -1 {
		t.Errorf("Hops invalid = %d, want -1", got)
	}
}

func TestMeshDisconnected(t *testing.T) {
	l := topo.NewLayout([]topo.Position{{X: 0}, {X: 1000}})
	m, err := BuildMesh(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.NextHop(0, 1); ok {
		t.Error("route across partition")
	}
	if got := m.Hops(0, 1); got != -1 {
		t.Errorf("Hops across partition = %d, want -1", got)
	}
}

func TestBuildMeshErrors(t *testing.T) {
	if _, err := BuildMesh(nil, 40); err == nil {
		t.Error("nil layout accepted")
	}
	l := gridLayout(t)
	if _, err := BuildMesh(l, 0); err == nil {
		t.Error("zero range accepted")
	}
}

// Property: every mesh next hop reduces the hop count by exactly one.
func TestMeshNextHopProgress(t *testing.T) {
	l := gridLayout(t)
	m, err := BuildMesh(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		from, to := int(a)%36, int(b)%36
		if from == to {
			return true
		}
		nh, ok := m.NextHop(from, to)
		if !ok {
			return false
		}
		return m.Hops(nh, to) == m.Hops(from, to)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the mesh's route toward any destination agrees with a tree
// built at that destination.
func TestMeshAgreesWithTree(t *testing.T) {
	l := gridLayout(t)
	m, err := BuildMesh(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dst uint8) bool {
		d := int(dst) % 36
		tree, err := BuildTree(l, d, 40)
		if err != nil {
			return false
		}
		for i := 0; i < 36; i++ {
			if i == d {
				continue
			}
			mh, okM := m.NextHop(i, d)
			th, okT := tree.NextHop(i)
			if okM != okT || mh != th {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestMeshTreeEqualsBuildTree checks that the tree a mesh hands out for
// a sink is BuildTree's at the mesh's range, on a connected grid and on
// a partitioned line, and that a sink outside the layout is refused.
func TestMeshTreeEqualsBuildTree(t *testing.T) {
	grid := gridLayout(t)
	split := topo.NewLayout([]topo.Position{{X: 0}, {X: 30}, {X: 1000}, {X: 1030}})
	for _, l := range []*topo.Layout{grid, split} {
		m, err := BuildMesh(l, 40)
		if err != nil {
			t.Fatal(err)
		}
		for sink := 0; sink < l.Len(); sink++ {
			got, err := m.Tree(sink)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildTree(l, sink, 40)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d-node layout, sink %d: mesh tree %+v, BuildTree %+v", l.Len(), sink, got, want)
			}
		}
		if _, err := m.Tree(l.Len()); err == nil {
			t.Errorf("%d-node layout: sink %d outside the layout accepted", l.Len(), l.Len())
		}
	}
}
