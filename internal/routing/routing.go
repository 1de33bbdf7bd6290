// Package routing builds the per-radio routing state of the paper's
// evaluation: shortest-path trees toward the sink over each radio's
// connectivity graph, and the route shortcut learning of Section 3
// (senders learn the farthest node along the low-power route that their
// high-power radio reaches directly). A node has one identity on both
// radios, so BCP addresses a high-power next hop by its node id.
package routing

import (
	"fmt"

	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// NoRoute marks the absence of a next hop.
const NoRoute = -1

// Tree is a shortest-path tree toward a single sink. Ties between
// equal-hop parents break toward the geographically closest parent, then
// the lowest node index, so tree construction is deterministic.
type Tree struct {
	sink    int
	nextHop []int
	hops    []int
}

// BuildTree computes the tree for the given layout, sink and radio range.
// Unreachable nodes get NoRoute/-1 entries.
func BuildTree(layout *topo.Layout, sink int, r units.Meters) (*Tree, error) {
	if layout == nil || layout.Len() == 0 {
		return nil, fmt.Errorf("routing: empty layout")
	}
	if sink < 0 || sink >= layout.Len() {
		return nil, fmt.Errorf("routing: sink %d outside layout of %d nodes", sink, layout.Len())
	}
	if r <= 0 {
		return nil, fmt.Errorf("routing: non-positive range %v", r)
	}
	return treeFromAdjacency(buildAdjacency(layout, r), sink), nil
}

// adjacency caches each node's in-range neighbors (ascending) with the
// corresponding link distances, so repeated BFS passes (BuildMesh runs
// one per node) cost O(N+E) each instead of O(N^2) range checks.
type adjacency struct {
	nb   [][]int
	dist [][]units.Meters
}

func buildAdjacency(layout *topo.Layout, r units.Meters) *adjacency {
	nb, dist := layout.Adjacency(r)
	return &adjacency{nb: nb, dist: dist}
}

// treeFromAdjacency is BuildTree's core: a BFS for hop counts followed
// by the closest-then-lowest-index parent pick, identical in order and
// tie-breaks to scanning the layout directly.
func treeFromAdjacency(adj *adjacency, sink int) *Tree {
	n := len(adj.nb)
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[sink] = 0
	next := make([]int, n)
	// The BFS queue borrows next's array: each node enters the queue at
	// most once, and next is written only after the BFS.
	queue := next[:1]
	queue[0] = sink
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range adj.nb[cur] {
			if hops[nb] == -1 {
				hops[nb] = hops[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	for i := 0; i < n; i++ {
		next[i] = NoRoute
		if i == sink || hops[i] <= 0 {
			continue
		}
		best := NoRoute
		var bestDist units.Meters
		for k, nb := range adj.nb[i] {
			if hops[nb] != hops[i]-1 {
				continue
			}
			d := adj.dist[i][k]
			if best == NoRoute || d < bestDist || (d == bestDist && nb < best) {
				best, bestDist = nb, d
			}
		}
		next[i] = best
	}
	return &Tree{sink: sink, nextHop: next, hops: hops}
}

// Sink returns the tree's sink node.
func (t *Tree) Sink() int { return t.sink }

// Len returns the number of nodes the tree covers.
func (t *Tree) Len() int { return len(t.nextHop) }

// NextHop returns the next hop from node i toward the sink, and whether
// one exists (false at the sink itself and for disconnected nodes).
func (t *Tree) NextHop(i int) (int, bool) {
	if i < 0 || i >= len(t.nextHop) || t.nextHop[i] == NoRoute {
		return NoRoute, false
	}
	return t.nextHop[i], true
}

// Hops returns node i's hop count to the sink (-1 if unreachable).
func (t *Tree) Hops(i int) int {
	if i < 0 || i >= len(t.hops) {
		return -1
	}
	return t.hops[i]
}

// Path returns the node sequence from i to the sink, inclusive of both
// endpoints, or nil if i has no route.
func (t *Tree) Path(i int) []int {
	if i == t.sink {
		return []int{i}
	}
	if i < 0 || i >= len(t.hops) || t.hops[i] < 0 {
		return nil
	}
	path := make([]int, 0, t.hops[i]+1)
	cur := i
	for cur != t.sink {
		path = append(path, cur)
		nh, ok := t.NextHop(cur)
		if !ok {
			return nil
		}
		cur = nh
	}
	return append(path, t.sink)
}

// OnPath reports whether node b lies on node a's path to the sink
// (excluding a itself).
func (t *Tree) OnPath(a, b int) bool {
	for _, n := range t.Path(a) {
		if n == b && n != a {
			return true
		}
	}
	return false
}

// Shortcut returns the farthest node along tree's path from node i to the
// sink that is within wifiRange of i — the steady state of Section 3's
// route-optimization learning (the sender hears its packet forwarded and
// adopts the last forwarder it can reach directly). It returns i's tree
// next hop when no farther node is reachable, and NoRoute when i has no
// route at all.
func Shortcut(tree *Tree, layout *topo.Layout, i int, wifiRange units.Meters) int {
	path := tree.Path(i)
	if len(path) < 2 {
		return NoRoute
	}
	best := path[1]
	for _, n := range path[2:] {
		if topo.InRange(layout.Position(i), layout.Position(n), wifiRange) {
			best = n
		} else {
			break
		}
	}
	return best
}

// Learner tracks per-node high-power next hops with optional shortcut
// learning. Before any burst, the high-power route copies the low-power
// tree (Section 3: "we advocate using the existing routes over the
// low-power radios initially"); after a node's first burst it learns the
// shortcut when learning is enabled.
type Learner struct {
	tree      *Tree
	layout    *topo.Layout
	wifiRange units.Meters
	enabled   bool
	learned   map[int]int
}

// NewLearner builds a learner over the sensor tree.
func NewLearner(tree *Tree, layout *topo.Layout, wifiRange units.Meters, enabled bool) *Learner {
	return &Learner{
		tree:      tree,
		layout:    layout,
		wifiRange: wifiRange,
		enabled:   enabled,
		learned:   make(map[int]int),
	}
}

// NextHop returns node i's current high-power next hop.
func (l *Learner) NextHop(i int) (int, bool) {
	if nh, ok := l.learned[i]; ok {
		return nh, true
	}
	return l.tree.NextHop(i)
}

// ObserveBurst records that node i completed a burst, triggering shortcut
// learning when enabled.
func (l *Learner) ObserveBurst(i int) {
	if !l.enabled {
		return
	}
	if _, done := l.learned[i]; done {
		return
	}
	if sc := Shortcut(l.tree, l.layout, i, l.wifiRange); sc != NoRoute {
		l.learned[i] = sc
	}
}

// Learned reports whether node i has adopted a shortcut.
func (l *Learner) Learned(i int) bool {
	_, ok := l.learned[i]
	return ok
}
