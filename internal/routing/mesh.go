package routing

import (
	"fmt"

	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// Mesh holds all-pairs next-hop routing over one radio's connectivity
// graph. BCP needs it to forward wake-up messages over the low-power
// radio toward arbitrary high-power next hops, which are not always
// ancestors in the data-collection tree.
//
// BuildMesh keeps only the adjacency; the routes toward a destination
// (one BFS) are built the first time NextHop or Hops asks for that
// destination, and kept. A BCP run only ever routes toward its nodes'
// high-power next hops and the sink — in the single-hop scenario, the
// sink alone — so most of the N BFS passes never run. Each row depends
// on the adjacency alone, so a row is the same whenever it is built. A
// Mesh is not safe for concurrent use.
type Mesh struct {
	adj  *adjacency
	next [][]int // next[dst][from]; nil until dst's row is built
	hops [][]int
}

// BuildMesh prepares shortest-path next hops between all pairs. Ties
// break toward the geographically closest neighbour, then the lowest
// index, matching BuildTree.
func BuildMesh(layout *topo.Layout, r units.Meters) (*Mesh, error) {
	if layout == nil || layout.Len() == 0 {
		return nil, fmt.Errorf("routing: empty layout")
	}
	if r <= 0 {
		return nil, fmt.Errorf("routing: non-positive range %v", r)
	}
	n := layout.Len()
	// One adjacency pass (O(N^2) geometry) shared by every row's BFS.
	return &Mesh{
		adj:  buildAdjacency(layout, r),
		next: make([][]int, n),
		hops: make([][]int, n),
	}, nil
}

// row builds destination dst's routes on first use.
func (m *Mesh) row(dst int) {
	if m.next[dst] == nil {
		tree := treeFromAdjacency(m.adj, dst)
		m.next[dst], m.hops[dst] = tree.nextHop, tree.hops
	}
}

// NextHop returns the next hop on the shortest path from node from to
// node to, and whether a route exists. from == to yields (NoRoute, false).
func (m *Mesh) NextHop(from, to int) (int, bool) {
	if !m.valid(from) || !m.valid(to) || from == to {
		return NoRoute, false
	}
	m.row(to)
	nh := m.next[to][from]
	if nh == NoRoute {
		return NoRoute, false
	}
	return nh, true
}

// Hops returns the shortest hop count between two nodes, or -1 when
// disconnected.
func (m *Mesh) Hops(from, to int) int {
	if !m.valid(from) || !m.valid(to) {
		return -1
	}
	m.row(to)
	return m.hops[to][from]
}

// Tree returns the shortest-path tree toward sink over the mesh's
// graph: the tree BuildTree makes at the mesh's range, without a second
// adjacency pass. The tree shares sink's mesh row (neither changes once
// built).
func (m *Mesh) Tree(sink int) (*Tree, error) {
	if !m.valid(sink) {
		return nil, fmt.Errorf("routing: sink %d outside layout of %d nodes", sink, m.Len())
	}
	m.row(sink)
	return &Tree{sink: sink, nextHop: m.next[sink], hops: m.hops[sink]}, nil
}

// Len returns the number of nodes covered.
func (m *Mesh) Len() int { return len(m.next) }

func (m *Mesh) valid(i int) bool { return i >= 0 && i < len(m.next) }
