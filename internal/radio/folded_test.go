package radio

import (
	"fmt"
	"slices"
	"testing"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
)

// domainNet attaches n powered-on Micaz transceivers 5 m apart on a
// line, so every node hears every other (range 40 m).
func domainNet(t *testing.T, n int) (*sim.Scheduler, *Channel, []*Transceiver) {
	t.Helper()
	sched := sim.NewScheduler(7)
	layout, err := topo.Line(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(sched, Config{Name: "sensor", Profile: energy.Micaz(), HeaderSize: 11}, layout)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*Transceiver, n)
	for i := range xs {
		if xs[i], err = ch.Attach(NodeID(i), OverhearFull, true); err != nil {
			t.Fatal(err)
		}
	}
	return sched, ch, xs
}

// TestFoldedCompletionEquivalence pins the single completion event of a
// transmission against what separate per-reception events and a
// separate transmitter completion, all at one instant in scheduling
// order, would do: receptions end in ascending receiver ID, the
// transmitter learns of its completion last, a receiver transmitting
// from its receive callback corrupts the receptions not yet ended, and
// Processed counts every reception plus the completion.
func TestFoldedCompletionEquivalence(t *testing.T) {
	const n, src = 6, 2
	for _, off := range [][]int{nil, {0, 4}, {0, 1, 3, 4, 5}} {
		t.Run(fmt.Sprintf("off=%v", off), func(t *testing.T) {
			sched, ch, xs := domainNet(t, n)
			for _, id := range off {
				if err := xs[id].PowerOff(); err != nil {
					t.Fatal(err)
				}
			}
			var log []string
			for i, x := range xs {
				x.SetOnReceive(func(f Frame) { log = append(log, fmt.Sprintf("rx%d@%v", i, sched.Now())) })
			}
			xs[src].SetOnTxDone(func(Frame) { log = append(log, fmt.Sprintf("tx%d@%v", src, sched.Now())) })

			f := Frame{Kind: KindData, Dst: Broadcast, Size: 43}
			before := sched.Processed
			if err := xs[src].Transmit(f); err != nil {
				t.Fatal(err)
			}
			if got := sched.Pending(); got != 1 {
				t.Errorf("Pending = %d after Transmit, want one completion event", got)
			}
			sched.Run()

			at := ch.Airtime(f.Size)
			var want []string
			for i := range xs {
				if i != src && !slices.Contains(off, i) {
					want = append(want, fmt.Sprintf("rx%d@%v", i, at))
				}
			}
			k := len(want)
			want = append(want, fmt.Sprintf("tx%d@%v", src, at))
			if !slices.Equal(log, want) {
				t.Errorf("completion order = %v, want %v", log, want)
			}
			if got := sched.Processed - before; got != uint64(k+1) {
				t.Errorf("Processed rose by %d, want %d (k=%d receptions + 1)", got, k+1, k)
			}
		})
	}

	t.Run("receiver-transmits-mid-batch", func(t *testing.T) {
		sched, ch, xs := domainNet(t, n)
		delivered := map[uint64][]NodeID{} // frame seq -> receivers
		for i, x := range xs {
			x.SetOnReceive(func(f Frame) { delivered[f.Seq] = append(delivered[f.Seq], NodeID(i)) })
		}
		// Receiver 1 answers synchronously: its frame lands on receivers
		// 3, 4 and 5 while they still hold the original, unfinished.
		xs[1].SetOnReceive(func(f Frame) {
			delivered[f.Seq] = append(delivered[f.Seq], 1)
			if f.Seq == 1 {
				if err := xs[1].Transmit(Frame{Kind: KindData, Dst: Broadcast, Size: 43, Seq: 2}); err != nil {
					t.Error(err)
				}
			}
		})
		before := sched.Processed
		if err := xs[src].Transmit(Frame{Kind: KindData, Dst: Broadcast, Size: 43, Seq: 1}); err != nil {
			t.Fatal(err)
		}
		sched.Run()
		if got, want := delivered[1], []NodeID{0, 1}; !slices.Equal(got, want) {
			t.Errorf("original frame delivered at %v, want %v (later receivers corrupted)", got, want)
		}
		// The answer reaches only node 0: node 2 was still transmitting
		// and 3..5 heard two frames at once.
		if got, want := delivered[2], []NodeID{0}; !slices.Equal(got, want) {
			t.Errorf("answer delivered at %v, want %v", got, want)
		}
		if got, want := ch.Stats().Collisions, uint64(3+4); got != want {
			t.Errorf("Collisions = %d, want %d", got, want)
		}
		// Two transmissions, each heard by the five other nodes.
		if got := sched.Processed - before; got != 2*(5+1) {
			t.Errorf("Processed rose by %d, want %d", got, 2*(5+1))
		}
	})
}

// TestTransmitCycleZeroAllocs checks that a warm transmit -> completion
// cycle, with receptions at every other node, allocates nothing.
func TestTransmitCycleZeroAllocs(t *testing.T) {
	sched, _, xs := domainNet(t, 8)
	f := Frame{Kind: KindData, Dst: 3, Size: 43}
	cycle := func() {
		if err := xs[0].Transmit(f); err != nil {
			t.Fatal(err)
		}
		sched.Run()
	}
	cycle() // warm the reception batch and the scheduler
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("transmit cycle allocates %.1f times, want 0", allocs)
	}
}
