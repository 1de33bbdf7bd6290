package netsim

import (
	"fmt"
	"sort"

	"bulktx/internal/topo"
)

// SinkPolicy is the pluggable sink-selection part of a Scenario: given
// the materialized layout it picks the collection node.
type SinkPolicy interface {
	// Kind names the policy ("near-center", "node").
	Kind() string
	// Pick returns the sink's node index in the layout.
	Pick(l *topo.Layout) (int, error)
}

// sinkNearCenter picks the node closest to the layout centroid.
type sinkNearCenter struct{}

// SinkNearCenter selects the node closest to the deployment centroid —
// the default, matching the paper's requirement that the long-range
// radio reach the sink in one hop from everywhere.
func SinkNearCenter() SinkPolicy { return sinkNearCenter{} }

func (sinkNearCenter) Kind() string { return "near-center" }
func (sinkNearCenter) Pick(l *topo.Layout) (int, error) {
	return defaultSink(l), nil
}

// sinkAt pins the sink to an explicit node.
type sinkAt struct{ node int }

// SinkAt pins the sink to the given node index.
func SinkAt(node int) SinkPolicy { return sinkAt{node: node} }

func (s sinkAt) Kind() string { return "node" }
func (s sinkAt) Pick(l *topo.Layout) (int, error) {
	if s.node < 0 || s.node >= l.Len() {
		return 0, fmt.Errorf("netsim: sink %d outside layout of %d nodes", s.node, l.Len())
	}
	return s.node, nil
}

// SenderPolicy is the pluggable sender-selection part of a Scenario:
// given the layout and the sink it picks which n nodes generate
// traffic.
type SenderPolicy interface {
	// Kind names the policy ("stable-shuffle", "explicit", "farthest").
	Kind() string
	// Pick returns the sender node indices. Implementations must be
	// deterministic and must never include the sink.
	Pick(l *topo.Layout, sink, n int) ([]int, error)
}

// shuffledSenders draws senders from a fixed pseudo-random permutation.
type shuffledSenders struct{ permSeed int64 }

// StableShuffleSenders selects senders from a pseudo-random permutation
// fixed by the default permutation seed, independently of the run seed —
// the paper's convention: the 5-sender set is a subset of the 10-sender
// set and both are identical across repetitions.
func StableShuffleSenders() SenderPolicy {
	return shuffledSenders{permSeed: senderPermSeed}
}

// ShuffledSenders is StableShuffleSenders with an explicit permutation
// seed, for scenarios that want a different (but still
// repetition-stable) sender universe.
func ShuffledSenders(permSeed int64) SenderPolicy {
	return shuffledSenders{permSeed: permSeed}
}

func (shuffledSenders) Kind() string { return "stable-shuffle" }
func (p shuffledSenders) Pick(l *topo.Layout, sink, n int) ([]int, error) {
	if n < 1 || n >= l.Len() {
		return nil, sendersOutside(n, l.Len())
	}
	return pickSendersSeeded(l.Len(), sink, n, p.permSeed), nil
}

// explicitSenders pins the sender set.
type explicitSenders struct{ nodes []int }

// ExplicitSenders pins the sender set to the given node indices. The
// set carries its own count: the requested count is ignored.
func ExplicitSenders(nodes ...int) SenderPolicy {
	ns := make([]int, len(nodes))
	copy(ns, nodes)
	return explicitSenders{nodes: ns}
}

func (explicitSenders) Kind() string { return "explicit" }
func (p explicitSenders) Pick(l *topo.Layout, sink, n int) ([]int, error) {
	if len(p.nodes) == 0 {
		return nil, fmt.Errorf("netsim: explicit sender set is empty")
	}
	seen := make(map[int]bool, len(p.nodes))
	for _, s := range p.nodes {
		switch {
		case s < 0 || s >= l.Len():
			return nil, fmt.Errorf("netsim: sender %d outside layout of %d nodes", s, l.Len())
		case s == sink:
			return nil, fmt.Errorf("netsim: sender %d is the sink", s)
		case seen[s]:
			return nil, fmt.Errorf("netsim: duplicate sender %d", s)
		}
		seen[s] = true
	}
	out := make([]int, len(p.nodes))
	copy(out, p.nodes)
	return out, nil
}

// farthestSenders picks the nodes farthest from the sink.
type farthestSenders struct{}

// FarthestSenders selects the n nodes farthest from the sink (ties
// broken by index) — the worst case for hop count and collection
// energy.
func FarthestSenders() SenderPolicy { return farthestSenders{} }

func (farthestSenders) Kind() string { return "farthest" }
func (farthestSenders) Pick(l *topo.Layout, sink, n int) ([]int, error) {
	if n < 1 || n >= l.Len() {
		return nil, sendersOutside(n, l.Len())
	}
	order := make([]int, 0, l.Len()-1)
	for i := 0; i < l.Len(); i++ {
		if i != sink {
			order = append(order, i)
		}
	}
	sp := l.Position(sink)
	sort.SliceStable(order, func(a, b int) bool {
		da := topo.Distance(l.Position(order[a]), sp)
		db := topo.Distance(l.Position(order[b]), sp)
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order[:n], nil
}
