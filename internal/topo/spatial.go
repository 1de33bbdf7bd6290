package topo

import (
	"math"
	"sort"

	"bulktx/internal/units"
)

// spatialThreshold is the node count above which the geometry passes
// (adjacency construction, connectivity BFS) switch from the pairwise
// O(N^2) scan to the uniform-grid spatial hash. Below it the pairwise
// pass is faster in practice and serves as the reference
// implementation; the equivalence tests in spatial_test.go force both
// paths onto the same layouts and require identical output.
const spatialThreshold = 256

// SpatialHash is a uniform-grid index over a Layout's node positions:
// the bounding box is tiled with square cells and every node is binned
// by position, stored in compressed (CSR) form. Construction is O(N);
// an in-range query visits only the cells overlapping the query disk.
//
// Within a cell, node indices are stored ascending (the counting sort
// fills them in index order), but a multi-cell query yields nodes in
// cell order, not index order — callers needing globally sorted
// neighbor lists must sort the collected result.
type SpatialHash struct {
	l          *Layout
	minX, minY float64
	cell       float64 // cell edge length in meters, > 0
	cols, rows int
	start      []int32 // CSR offsets per cell, len cols*rows+1
	ids        []int32 // node indices grouped by cell, ascending within
}

// NewSpatialHash builds the index with the given cell size (typically
// the radio range, so an in-range query inspects at most a 3x3 cell
// window). Non-positive cell sizes fall back to a size derived from the
// bounding box, and the total cell count is capped near 4N by doubling
// the cell size, bounding memory on sparse layouts.
func NewSpatialHash(l *Layout, cell units.Meters) *SpatialHash {
	n := len(l.positions)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range l.positions {
		minX = math.Min(minX, float64(p.X))
		minY = math.Min(minY, float64(p.Y))
		maxX = math.Max(maxX, float64(p.X))
		maxY = math.Max(maxY, float64(p.Y))
	}
	if n == 0 {
		minX, minY, maxX, maxY = 0, 0, 0, 0
	}
	w, h := maxX-minX, maxY-minY
	c := float64(cell)
	if c <= 0 {
		// Degenerate range (e.g. r = 0 queries): any positive cell size
		// is correct; aim for ~1 node per cell.
		c = math.Max(w, h) / math.Sqrt(float64(n)+1)
		if c <= 0 {
			c = 1
		}
	}
	// Cap the grid near 4 cells per node (the float comparison avoids
	// integer overflow on huge bounding boxes with tiny cells).
	limit := math.Max(4*float64(n), 1)
	for (w/c+1)*(h/c+1) > limit {
		c *= 2
	}
	cols := int(w/c) + 1
	rows := int(h/c) + 1

	hsh := &SpatialHash{
		l: l, minX: minX, minY: minY, cell: c, cols: cols, rows: rows,
		start: make([]int32, cols*rows+1),
		ids:   make([]int32, n),
	}
	// Counting sort into CSR form; filling in node-index order leaves
	// each cell's ids ascending.
	for _, p := range l.positions {
		hsh.start[hsh.cellOf(p)+1]++
	}
	for i := 1; i < len(hsh.start); i++ {
		hsh.start[i] += hsh.start[i-1]
	}
	fill := make([]int32, cols*rows)
	copy(fill, hsh.start[:cols*rows])
	for i, p := range l.positions {
		cIdx := hsh.cellOf(p)
		hsh.ids[fill[cIdx]] = int32(i)
		fill[cIdx]++
	}
	return hsh
}

// cellOf maps a position to its cell index, clamped to the grid (float
// rounding at the bounding-box edge must not escape it).
func (h *SpatialHash) cellOf(p Position) int {
	cx := int((float64(p.X) - h.minX) / h.cell)
	cy := int((float64(p.Y) - h.minY) / h.cell)
	cx = max(0, min(cx, h.cols-1))
	cy = max(0, min(cy, h.rows-1))
	return cy*h.cols + cx
}

// EachInRange calls fn for every node within range r of node i,
// excluding i itself, using the exact same distance comparison as
// InRange (so the reported set is identical to a brute-force scan).
// Visit order is cell-major (row by row, ascending node index within a
// cell), not globally ascending.
func (h *SpatialHash) EachInRange(i int, r units.Meters, fn func(j int)) {
	p := h.l.positions[i]
	rr := float64(r)
	cx0 := max(0, int(math.Floor((float64(p.X)-rr-h.minX)/h.cell)))
	cx1 := min(h.cols-1, int(math.Floor((float64(p.X)+rr-h.minX)/h.cell)))
	cy0 := max(0, int(math.Floor((float64(p.Y)-rr-h.minY)/h.cell)))
	cy1 := min(h.rows-1, int(math.Floor((float64(p.Y)+rr-h.minY)/h.cell)))
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * h.cols
		for cx := cx0; cx <= cx1; cx++ {
			c := row + cx
			for _, id := range h.ids[h.start[c]:h.start[c+1]] {
				j := int(id)
				if j != i && InRange(p, h.l.positions[j], r) {
					fn(j)
				}
			}
		}
	}
}

// eachNeighborFn returns the neighbor-iteration function for BFS-style
// traversals: the brute-force scan for small layouts, a freshly built
// spatial hash above the threshold. Hash-backed iteration visits
// neighbors in cell order rather than ascending index order, which BFS
// reachability and hop counts are insensitive to.
func (l *Layout) eachNeighborFn(r units.Meters) func(i int, fn func(j int)) {
	if len(l.positions) <= spatialThreshold {
		return func(i int, fn func(j int)) { l.EachNeighbor(i, r, fn) }
	}
	h := NewSpatialHash(l, r)
	return func(i int, fn func(j int)) { h.EachInRange(i, r, fn) }
}

// hashAdjacency is the spatial-hash construction of Adjacency's
// output, byte-identical to the pairwise pass: per-node neighbor lists
// in ascending index order with aligned distances computed by the same
// Distance call.
func (l *Layout) hashAdjacency(r units.Meters) (nb [][]int, dist [][]units.Meters) {
	n := len(l.positions)
	h := NewSpatialHash(l, r)
	nb = make([][]int, n)
	dist = make([][]units.Meters, n)
	var scratch []int
	for i := 0; i < n; i++ {
		scratch = scratch[:0]
		h.EachInRange(i, r, func(j int) { scratch = append(scratch, j) })
		if len(scratch) == 0 {
			continue
		}
		sort.Ints(scratch)
		row := make([]int, len(scratch))
		copy(row, scratch)
		nb[i] = row
		ds := make([]units.Meters, len(row))
		pi := l.positions[i]
		for k, j := range row {
			ds[k] = Distance(pi, l.positions[j])
		}
		dist[i] = ds
	}
	return nb, dist
}
