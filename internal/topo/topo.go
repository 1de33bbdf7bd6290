// Package topo provides node placement and connectivity geometry for the
// evaluation scenarios: the paper's 6x6 grid over a 200x200 m field, the
// linear source-destination layout of Section 2.2, and random layouts for
// robustness tests.
package topo

import (
	"fmt"
	"math"
	"math/rand"

	"bulktx/internal/units"
)

// Position is a node location on the deployment plane.
type Position struct {
	// X and Y are the plane coordinates in meters.
	X, Y units.Meters
}

// Distance returns the Euclidean distance between two positions.
func Distance(a, b Position) units.Meters {
	dx := float64(a.X - b.X)
	dy := float64(a.Y - b.Y)
	return units.Meters(math.Hypot(dx, dy))
}

// InRange reports whether b is within radio range r of a.
func InRange(a, b Position, r units.Meters) bool {
	return Distance(a, b) <= r
}

// Layout is an indexed set of node positions. Index 0 conventionally
// hosts the sink in the evaluation scenarios.
type Layout struct {
	positions []Position
}

// NewLayout copies the given positions into a Layout.
func NewLayout(positions []Position) *Layout {
	ps := make([]Position, len(positions))
	copy(ps, positions)
	return &Layout{positions: ps}
}

// Grid places n nodes on the smallest square grid covering a field x field
// area, row-major from the origin corner. The paper's evaluation uses
// Grid(36, 200) — a 6x6 grid with 40 m spacing, matching the sensor radio
// range so each node reaches its grid neighbours.
//
// Degenerate sizes are handled explicitly instead of falling through the
// square-grid arithmetic: a single node sits at the field center, and
// n = 2 or 3 (where ceil(sqrt(n)) = 2 would scatter the nodes over a
// corner of a 2x2 frame with full-field spacing) become a mid-field row
// with spacing field/(n-1). Every generated position lies within
// [0, field] on both axes for every n.
func Grid(n int, field units.Meters) (*Layout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: grid size %d must be positive (want at least one node)", n)
	}
	if field <= 0 {
		return nil, fmt.Errorf("topo: field size %v must be positive", field)
	}
	ps := make([]Position, 0, n)
	switch {
	case n == 1:
		ps = append(ps, Position{X: field / 2, Y: field / 2})
	case n <= 3:
		spacing := float64(field) / float64(n-1)
		for i := 0; i < n; i++ {
			ps = append(ps, Position{
				X: units.Meters(float64(i) * spacing),
				Y: field / 2,
			})
		}
	default:
		side := int(math.Ceil(math.Sqrt(float64(n))))
		spacing := float64(field) / float64(side-1)
		for i := 0; i < n; i++ {
			row, col := i/side, i%side
			ps = append(ps, Position{
				X: units.Meters(float64(col) * spacing),
				Y: units.Meters(float64(row) * spacing),
			})
		}
	}
	return &Layout{positions: ps}, nil
}

// Line places n nodes on a straight line with the given spacing, node 0
// at the origin. Section 2.2's multi-hop feasibility study uses a linear
// topology with the source and destination 200 m apart.
func Line(n int, spacing units.Meters) (*Layout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: line size %d must be positive", n)
	}
	if spacing < 0 {
		return nil, fmt.Errorf("topo: spacing %v must be non-negative", spacing)
	}
	ps := make([]Position, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, Position{X: units.Meters(float64(i) * float64(spacing))})
	}
	return &Layout{positions: ps}, nil
}

// Random places n nodes uniformly at random over a field x field area
// using the given source.
func Random(n int, field units.Meters, rng *rand.Rand) (*Layout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: random size %d must be positive", n)
	}
	if field <= 0 {
		return nil, fmt.Errorf("topo: field size %v must be positive", field)
	}
	ps := make([]Position, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, Position{
			X: units.Meters(rng.Float64() * float64(field)),
			Y: units.Meters(rng.Float64() * float64(field)),
		})
	}
	return &Layout{positions: ps}, nil
}

// Clustered places n nodes in k hotspots over a field x field area:
// cluster centers fall uniformly at random, and members scatter around
// their center (round-robin assignment, node i to cluster i mod k) with
// Gaussian spread, clamped to the field. It models event-driven
// deployments where sensing density follows phenomena rather than a
// survey grid.
func Clustered(n, k int, field, spread units.Meters, rng *rand.Rand) (*Layout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topo: clustered size %d must be positive", n)
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("topo: cluster count %d outside [1, %d]", k, n)
	}
	if field <= 0 {
		return nil, fmt.Errorf("topo: field size %v must be positive", field)
	}
	if spread < 0 {
		return nil, fmt.Errorf("topo: cluster spread %v must be non-negative", spread)
	}
	centers := make([]Position, k)
	for i := range centers {
		centers[i] = Position{
			X: units.Meters(rng.Float64() * float64(field)),
			Y: units.Meters(rng.Float64() * float64(field)),
		}
	}
	clamp := func(v float64) units.Meters {
		return units.Meters(math.Min(math.Max(v, 0), float64(field)))
	}
	ps := make([]Position, 0, n)
	for i := 0; i < n; i++ {
		c := centers[i%k]
		ps = append(ps, Position{
			X: clamp(float64(c.X) + rng.NormFloat64()*float64(spread)),
			Y: clamp(float64(c.Y) + rng.NormFloat64()*float64(spread)),
		})
	}
	return &Layout{positions: ps}, nil
}

// Len returns the number of nodes.
func (l *Layout) Len() int { return len(l.positions) }

// Position returns node i's location.
func (l *Layout) Position(i int) Position { return l.positions[i] }

// Positions returns a copy of all positions.
func (l *Layout) Positions() []Position {
	out := make([]Position, len(l.positions))
	copy(out, l.positions)
	return out
}

// Neighbors returns the indices of all nodes within range r of node i,
// excluding i itself.
func (l *Layout) Neighbors(i int, r units.Meters) []int {
	var out []int
	l.EachNeighbor(i, r, func(j int) { out = append(out, j) })
	return out
}

// Adjacency returns, for every node, the indices of its in-range
// neighbors (excluding itself) in ascending order, together with the
// corresponding link distances. It is the shared geometry pass behind
// the routing layer's tree construction. Small layouts use a pairwise
// O(N^2) scan (each unordered pair measured once; appending j>i during
// pass i and i<j during pass j leaves every per-node list sorted
// without an explicit sort); layouts above the spatial-hash threshold
// are built from a uniform-grid index in O(N + edges) with identical
// output.
func (l *Layout) Adjacency(r units.Meters) (nb [][]int, dist [][]units.Meters) {
	n := len(l.positions)
	if n > spatialThreshold {
		// Large layouts go through the spatial hash: O(N) grid build plus
		// per-node window queries instead of the O(N^2) pairwise pass.
		// The output contract is identical (ascending lists, aligned
		// distances); spatial_test.go holds both paths to the same bytes.
		return l.hashAdjacency(r)
	}
	nb = make([][]int, n)
	dist = make([][]units.Meters, n)
	for i := 0; i < n; i++ {
		pi := l.positions[i]
		for j := i + 1; j < n; j++ {
			d := Distance(pi, l.positions[j])
			if d <= r {
				nb[i] = append(nb[i], j)
				nb[j] = append(nb[j], i)
				dist[i] = append(dist[i], d)
				dist[j] = append(dist[j], d)
			}
		}
	}
	return nb, dist
}

// EachNeighbor calls fn for every node within range r of node i
// (excluding i itself), in ascending index order. It is the
// allocation-free form of Neighbors for BFS-style traversals.
func (l *Layout) EachNeighbor(i int, r units.Meters, fn func(j int)) {
	pi := l.positions[i]
	for j := range l.positions {
		if j == i {
			continue
		}
		if InRange(pi, l.positions[j], r) {
			fn(j)
		}
	}
}

// Connected reports whether every node can reach node root over links of
// range r (breadth-first search).
func (l *Layout) Connected(root int, r units.Meters) bool {
	if root < 0 || root >= len(l.positions) {
		return false
	}
	each := l.eachNeighborFn(r)
	seen := make([]bool, len(l.positions))
	queue := []int{root}
	seen[root] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		each(cur, func(nb int) {
			if !seen[nb] {
				seen[nb] = true
				count++
				queue = append(queue, nb)
			}
		})
	}
	return count == len(l.positions)
}

// HopCounts returns the minimum hop count from every node to root over
// links of range r; unreachable nodes get -1.
func (l *Layout) HopCounts(root int, r units.Meters) []int {
	hops := make([]int, len(l.positions))
	for i := range hops {
		hops[i] = -1
	}
	if root < 0 || root >= len(l.positions) {
		return hops
	}
	hops[root] = 0
	each := l.eachNeighborFn(r)
	queue := []int{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		each(cur, func(nb int) {
			if hops[nb] == -1 {
				hops[nb] = hops[cur] + 1
				queue = append(queue, nb)
			}
		})
	}
	return hops
}
