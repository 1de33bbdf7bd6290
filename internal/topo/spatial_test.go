package topo

import (
	"math/rand"
	"testing"

	"bulktx/internal/units"
)

// spatialTestLayouts returns layouts spanning the shapes the hash must
// handle: random fields, clustered hotspots, regular grids, a line,
// all nodes co-located, and tiny N.
func spatialTestLayouts(t *testing.T, rng *rand.Rand) map[string]*Layout {
	t.Helper()
	mk := func(l *Layout, err error) *Layout {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	samePoint := make([]Position, 40)
	for i := range samePoint {
		samePoint[i] = Position{X: 17, Y: 23}
	}
	return map[string]*Layout{
		"random-small":  mk(Random(60, 200, rng)),
		"random-large":  mk(Random(600, 400, rng)),
		"clustered":     mk(Clustered(500, 7, 300, 12, rng)),
		"grid-small":    mk(Grid(36, 200)),
		"grid-large":    mk(Grid(1024, 1280)),
		"line":          mk(Line(300, 40)),
		"colocated":     NewLayout(samePoint),
		"pair":          mk(Grid(2, 100)),
		"triple":        mk(Grid(3, 100)),
		"single":        mk(Grid(1, 100)),
		"random-sparse": mk(Random(400, 100000, rng)),
	}
}

// TestSpatialHashMatchesBruteForce requires EachInRange to report
// exactly the brute-force neighbor set for every node, on every layout
// shape, across ranges including 0 (all out of range unless co-located)
// and huge (everyone in range).
func TestSpatialHashMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, l := range spatialTestLayouts(t, rng) {
		for _, r := range []units.Meters{0, 1, 40, 57.3, 500, 1e6} {
			h := NewSpatialHash(l, r)
			for i := 0; i < l.Len(); i++ {
				var got []int
				h.EachInRange(i, r, func(j int) { got = append(got, j) })
				want := l.Neighbors(i, r)
				if len(got) != len(want) {
					t.Fatalf("%s r=%v node %d: hash found %d neighbors, brute force %d",
						name, r, i, len(got), len(want))
				}
				seen := make(map[int]bool, len(got))
				for _, j := range got {
					seen[j] = true
				}
				for _, j := range want {
					if !seen[j] {
						t.Fatalf("%s r=%v node %d: hash missed neighbor %d", name, r, i, j)
					}
				}
			}
		}
	}
}

// TestAdjacencyPathsIdentical holds the hash-backed adjacency
// construction to the pairwise pass's exact output — same lists, same
// order, same aligned distances — on layouts both below and above the
// switching threshold.
func TestAdjacencyPathsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, l := range spatialTestLayouts(t, rng) {
		for _, r := range []units.Meters{0, 40, 120} {
			n := l.Len()
			// Pairwise reference, forced regardless of size.
			refNb := make([][]int, n)
			refDist := make([][]units.Meters, n)
			for i := 0; i < n; i++ {
				pi := l.positions[i]
				for j := i + 1; j < n; j++ {
					d := Distance(pi, l.positions[j])
					if d <= r {
						refNb[i] = append(refNb[i], j)
						refNb[j] = append(refNb[j], i)
						refDist[i] = append(refDist[i], d)
						refDist[j] = append(refDist[j], d)
					}
				}
			}
			hashNb, hashDist := l.hashAdjacency(r)
			prodNb, prodDist := l.Adjacency(r)
			for i := 0; i < n; i++ {
				assertIntRows(t, name, "hash", i, hashNb[i], refNb[i])
				assertIntRows(t, name, "prod", i, prodNb[i], refNb[i])
				assertDistRows(t, name, "hash", i, hashDist[i], refDist[i])
				assertDistRows(t, name, "prod", i, prodDist[i], refDist[i])
			}
		}
	}
}

func assertIntRows(t *testing.T, layout, path string, i int, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s/%s node %d: %d neighbors, want %d", layout, path, i, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s/%s node %d: neighbor[%d] = %d, want %d", layout, path, i, k, got[k], want[k])
		}
	}
}

func assertDistRows(t *testing.T, layout, path string, i int, got, want []units.Meters) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s/%s node %d: %d distances, want %d", layout, path, i, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s/%s node %d: dist[%d] = %v, want %v (must be bit-identical)",
				layout, path, i, k, got[k], want[k])
		}
	}
}

// TestBFSPathsAgree checks Connected and HopCounts give the same
// answers through the hash-backed iterator as through the brute-force
// scan, including on a layout big enough to take the hash path.
func TestBFSPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, l := range spatialTestLayouts(t, rng) {
		for _, r := range []units.Meters{0, 40, 200} {
			// Brute-force reference BFS.
			refHops := make([]int, l.Len())
			for i := range refHops {
				refHops[i] = -1
			}
			refHops[0] = 0
			queue := []int{0}
			count := 1
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				l.EachNeighbor(cur, r, func(nb int) {
					if refHops[nb] == -1 {
						refHops[nb] = refHops[cur] + 1
						count++
						queue = append(queue, nb)
					}
				})
			}
			if got, want := l.Connected(0, r), count == l.Len(); got != want {
				t.Fatalf("%s r=%v: Connected = %v, reference %v", name, r, got, want)
			}
			hops := l.HopCounts(0, r)
			for i := range refHops {
				if hops[i] != refHops[i] {
					t.Fatalf("%s r=%v: hops[%d] = %d, reference %d", name, r, i, hops[i], refHops[i])
				}
			}
		}
	}
}

// TestSpatialHashCellCap keeps the grid memory bounded on sparse
// layouts: a tiny range over a huge field must not materialize a cell
// per range-quantum.
func TestSpatialHashCellCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, err := Random(1000, 1e7, rng)
	if err != nil {
		t.Fatal(err)
	}
	h := NewSpatialHash(l, 1)
	if cells := h.cols * h.rows; cells > 4*l.Len()+4 {
		t.Fatalf("cell cap failed: %d cells for %d nodes", cells, l.Len())
	}
}
