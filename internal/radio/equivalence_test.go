package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// refArrival is one incoming frame at a reference receiver, held by
// pointer in the receiver's arrival list and the transmitter's batch.
type refArrival struct {
	t        *refTransceiver
	frame    Frame
	forMe    bool
	chargeRx bool
	corrupt  bool
	aborted  bool
}

// refChannel and refTransceiver are the list-based reception logic the
// epoch counters replaced, kept as a reference model: every receiver
// lists its arrivals, an overlap or a transmission marks all of them
// corrupt, a power-off or crash marks all of them aborted, and a
// finished arrival is removed by a linear search. Neighbors come from a
// brute-force range check in ascending ID. Scheduling, meter calls and
// random draws happen at the same points as in Channel/Transceiver.
type refChannel struct {
	sched   *sim.Scheduler
	cfg     Config
	layout  *topo.Layout
	nodes   []*refTransceiver
	stats   Stats
	rng     *rand.Rand
	aborted int // finished arrivals that had been aborted
}

type refTransceiver struct {
	ch       *refChannel
	id       NodeID
	meter    *energy.Meter
	overhear OverhearPolicy

	on           bool
	waking       bool
	failed       bool
	resumeWake   bool
	transmitting bool
	arrivals     []*refArrival
	lastBusyEnd  sim.Time

	txFrame Frame
	rxBatch []*refArrival

	wakeTimer sim.Timer
	onReceive func(Frame)
	onTxDone  func(Frame)
}

func newRefChannel(sched *sim.Scheduler, cfg Config, layout *topo.Layout) *refChannel {
	return &refChannel{
		sched:  sched,
		cfg:    cfg,
		layout: layout,
		nodes:  make([]*refTransceiver, layout.Len()),
		rng:    sched.Rand(),
	}
}

func (c *refChannel) attach(id NodeID, overhear OverhearPolicy) *refTransceiver {
	t := &refTransceiver{
		ch:       c,
		id:       id,
		meter:    energy.NewMeter(c.cfg.Profile, c.sched.Clock()),
		overhear: overhear,
		on:       true,
	}
	t.wakeTimer.Init(c.sched, sim.Func(t.completeWake))
	t.meter.Transition(energy.Idle)
	c.nodes[id] = t
	return t
}

func (c *refChannel) start(tx *refTransceiver, f Frame) {
	c.stats.Transmissions++
	airtime := c.cfg.Profile.Rate.TimeFor(f.Size)
	src := c.layout.Position(int(f.Src))
	for id, rx := range c.nodes {
		if NodeID(id) == f.Src || !topo.InRange(src, c.layout.Position(id), c.cfg.Range) {
			continue
		}
		if a := rx.arrive(f); a != nil {
			tx.rxBatch = append(tx.rxBatch, a)
			if len(tx.rxBatch) == 1 {
				c.sched.After(airtime, tx.endTx)
			}
		}
	}
	if len(tx.rxBatch) == 0 {
		c.sched.After(airtime, tx.endTx)
	}
}

func (t *refTransceiver) Meter() *energy.Meter        { return t.meter }
func (t *refTransceiver) SetOnReceive(fn func(Frame)) { t.onReceive = fn }
func (t *refTransceiver) SetOnTxDone(fn func(Frame))  { t.onTxDone = fn }

func (t *refTransceiver) SetFailed(down bool) {
	if t.failed == down {
		return
	}
	t.failed = down
	if down {
		t.resumeWake = t.resumeWake || t.waking
		t.wakeTimer.Stop()
		t.waking = false
		for _, a := range t.arrivals {
			a.aborted = true
		}
		t.arrivals = t.arrivals[:0]
		t.noteIdle()
		t.updateMeterState()
		return
	}
	t.noteIdle()
	t.updateMeterState()
	if t.resumeWake {
		t.resumeWake = false
		t.PowerOn()
	}
}

func (t *refTransceiver) Busy() bool {
	return t.transmitting || len(t.arrivals) > 0
}

func (t *refTransceiver) IdleFor() (sim.Time, bool) {
	if t.Busy() {
		return 0, false
	}
	return t.ch.sched.Now() - t.lastBusyEnd, true
}

func (t *refTransceiver) noteIdle() {
	if !t.Busy() {
		t.lastBusyEnd = t.ch.sched.Now()
	}
}

func (t *refTransceiver) PowerOn() {
	if t.failed {
		t.resumeWake = true
		return
	}
	if t.on || t.waking {
		return
	}
	t.meter.Transition(energy.WakingUp)
	if t.ch.cfg.WakeupLatency == 0 {
		t.completeWake()
		return
	}
	t.waking = true
	t.wakeTimer.Reset(t.ch.cfg.WakeupLatency)
}

func (t *refTransceiver) completeWake() {
	t.waking = false
	t.on = true
	t.updateMeterState()
}

func (t *refTransceiver) PowerOff() error {
	if t.transmitting {
		return fmt.Errorf("%w: node %d cannot power off mid-transmission", ErrRadioBusy, t.id)
	}
	t.wakeTimer.Stop()
	t.waking = false
	t.resumeWake = false
	t.on = false
	for _, a := range t.arrivals {
		a.aborted = true
	}
	t.arrivals = t.arrivals[:0]
	t.noteIdle()
	t.meter.Transition(energy.Off)
	return nil
}

func (t *refTransceiver) Transmit(f Frame) error {
	if !t.on || t.failed {
		return fmt.Errorf("%w: node %d", ErrRadioOff, t.id)
	}
	if t.transmitting {
		return fmt.Errorf("%w: node %d", ErrRadioBusy, t.id)
	}
	f.Src = t.id
	for _, a := range t.arrivals {
		a.corrupt = true
	}
	t.transmitting = true
	t.txFrame = f
	t.updateMeterState()
	t.ch.start(t, f)
	return nil
}

func (t *refTransceiver) endTx() {
	t.ch.sched.CountFolded(len(t.rxBatch))
	for _, a := range t.rxBatch {
		a.t.finishArrival(a)
	}
	t.rxBatch = t.rxBatch[:0]
	f := t.txFrame
	t.txFrame = Frame{}
	t.transmitting = false
	t.noteIdle()
	t.updateMeterState()
	if t.onTxDone != nil {
		t.onTxDone(f)
	}
}

func (t *refTransceiver) arrive(f Frame) *refArrival {
	if !t.on || t.failed {
		return nil
	}
	a := &refArrival{t: t, frame: f}
	a.forMe = f.Dst == t.id || f.Dst == Broadcast
	a.chargeRx = a.forMe || t.overhear == OverhearFull
	if t.transmitting {
		a.corrupt = true
	}
	if len(t.arrivals) > 0 {
		a.corrupt = true
		for _, other := range t.arrivals {
			other.corrupt = true
		}
	}
	t.arrivals = append(t.arrivals, a)
	t.updateMeterState()
	return a
}

func (t *refTransceiver) finishArrival(a *refArrival) {
	if a.aborted {
		t.ch.aborted++
		return
	}
	for i, cur := range t.arrivals {
		if cur == a {
			t.arrivals = append(t.arrivals[:i], t.arrivals[i+1:]...)
			break
		}
	}
	t.noteIdle()
	t.updateMeterState()
	if !a.forMe && t.overhear == OverhearHeaderOnly {
		headerAirtime := t.ch.cfg.Profile.Rate.TimeFor(t.ch.cfg.HeaderSize)
		t.meter.ChargeEnergy(energy.Overhear, t.ch.cfg.Profile.Rx.Over(headerAirtime))
	}
	if a.corrupt {
		t.ch.stats.Collisions++
		return
	}
	if p := t.ch.cfg.LossProb; p > 0 && t.ch.rng.Float64() < p {
		t.ch.stats.NoiseLosses++
		return
	}
	if !a.forMe {
		t.ch.stats.Overhears++
		return
	}
	t.ch.stats.Deliveries++
	if t.onReceive != nil {
		t.onReceive(a.frame)
	}
}

func (t *refTransceiver) updateMeterState() {
	switch {
	case t.failed:
		t.meter.Transition(energy.Off)
	case !t.on && t.waking:
		t.meter.Transition(energy.WakingUp)
	case !t.on:
		t.meter.Transition(energy.Off)
	case t.transmitting:
		t.meter.Transition(energy.Tx)
	case t.charging():
		t.meter.Transition(energy.Rx)
	default:
		t.meter.Transition(energy.Idle)
	}
}

func (t *refTransceiver) charging() bool {
	for _, a := range t.arrivals {
		if a.chargeRx {
			return true
		}
	}
	return false
}

// rxNode is the transceiver surface the equivalence test exercises,
// met by both *Transceiver and *refTransceiver.
type rxNode interface {
	Transmit(Frame) error
	PowerOff() error
	PowerOn()
	SetFailed(bool)
	Busy() bool
	IdleFor() (sim.Time, bool)
	Meter() *energy.Meter
	SetOnReceive(func(Frame))
	SetOnTxDone(func(Frame))
}

// Operations of an equivalence scenario.
const (
	opTransmit = iota
	opPowerOff // PowerOff, then PowerOn after the op's down time
	opFail     // SetFailed(true), then SetFailed(false) after the down time
	opPowerOn
)

// Frame flags, carried in the low bits of Frame.Seq.
const (
	flagReply    = 1 << iota // every clean receiver answers from its receive callback
	flagOffAfter             // the transmitter powers off from its tx-done callback
	flagBits     = 2
)

// offAfterDown is how long a radio powered off from its tx-done
// callback stays off.
const offAfterDown = time.Millisecond

// rxOp is one scheduled operation of an equivalence scenario.
type rxOp struct {
	at   sim.Time
	kind int
	node NodeID
	dst  NodeID
	size units.ByteSize
	seq  uint64
	down time.Duration
}

// rxScenario is a decoded equivalence scenario: a line of n nodes
// sharing one policy, and the operations to run on it.
type rxScenario struct {
	n       int
	policy  OverhearPolicy
	loss    float64
	wake    time.Duration
	spacing units.Meters
	ops     []rxOp
}

// maxRxOps bounds a decoded scenario so fuzz inputs stay fast.
const maxRxOps = 256

// decodeRxScenario turns bytes into a scenario. Two header bytes pick
// the node count (3..8), overhear policy, loss, wake-up latency and
// node spacing (5..40 m against a 40 m range, from one collision
// domain to hidden terminals); then every three bytes are one
// operation: time step and kind, node and destination, size (or down
// time) and frame flags. Any input decodes to a valid scenario.
func decodeRxScenario(data []byte) rxScenario {
	var h [2]byte
	copy(h[:], data)
	sc := rxScenario{
		n:       3 + int(h[0])%6,
		policy:  OverhearPolicy(1 + int(h[0]/6)%3),
		spacing: units.Meters(5 * (1 + int(h[1]>>2)%8)),
	}
	if h[1]&1 != 0 {
		sc.loss = 0.2
	}
	if h[1]&2 != 0 {
		sc.wake = 300 * time.Microsecond
	}
	var at sim.Time
	for i := 2; i+3 <= len(data) && len(sc.ops) < maxRxOps; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		at += sim.Time(b0&0x1f) * 200 * time.Microsecond
		op := rxOp{at: at, node: NodeID(int(b1) % sc.n)}
		// Most operations transmit. Every power-off and crash comes back
		// up after its down time, so most radios are up at any time; a
		// lone power-on reaches waking and crashed radios too.
		switch k := b0 >> 5; {
		case k < 5:
			op.kind = opTransmit
		case k == 5:
			op.kind = opPowerOff
		case k == 6:
			op.kind = opFail
		default:
			op.kind = opPowerOn
		}
		op.down = sim.Time(b2&0x3f) * 100 * time.Microsecond
		op.dst = NodeID(int(b1) / sc.n % (sc.n + 1))
		if op.dst == NodeID(sc.n) {
			op.dst = Broadcast
		}
		op.size = units.ByteSize(11 + b2&0x3f)
		op.seq = uint64(len(sc.ops)+1)<<flagBits | uint64(b2>>6)
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// rxRecord is one callback or meter-transition record of a run.
type rxRecord struct {
	what     string
	node     NodeID
	frame    Frame
	from, to energy.State
	err      string
}

// rxRun is one implementation driven through a scenario.
type rxRun struct {
	sched   *sim.Scheduler
	stats   func() Stats
	nodes   []rxNode
	log     []rxRecord
	ref     *refChannel // the reference channel; nil for Channel runs
	replies int         // replies transmitted from receive callbacks
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// newRxRun builds the scenario's network on one implementation (ref
// picks the reference) and schedules its operations.
func newRxRun(t testing.TB, sc rxScenario, ref bool) *rxRun {
	t.Helper()
	sched := sim.NewScheduler(11)
	layout, err := topo.Line(sc.n, sc.spacing)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:          "sensor",
		Profile:       energy.Micaz(),
		Range:         40,
		LossProb:      sc.loss,
		WakeupLatency: sc.wake,
		HeaderSize:    11,
	}
	r := &rxRun{sched: sched, nodes: make([]rxNode, sc.n)}
	if ref {
		rc := newRefChannel(sched, cfg, layout)
		r.ref = rc
		r.stats = func() Stats { return rc.stats }
		for i := range r.nodes {
			r.nodes[i] = rc.attach(NodeID(i), sc.policy)
		}
	} else {
		ch, err := NewChannel(sched, cfg, layout)
		if err != nil {
			t.Fatal(err)
		}
		r.stats = ch.Stats
		for i := range r.nodes {
			if r.nodes[i], err = ch.Attach(NodeID(i), sc.policy, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, x := range r.nodes {
		id := NodeID(i)
		x.Meter().SetOnTransition(func(from, to energy.State) {
			r.log = append(r.log, rxRecord{what: "transition", node: id, from: from, to: to})
		})
		x.SetOnReceive(func(f Frame) {
			r.log = append(r.log, rxRecord{what: "rx", node: id, frame: f})
			if f.Seq&flagReply != 0 {
				// Answer synchronously, mid-batch: the reply lands on
				// receivers whose receptions of f have not ended yet.
				reply := Frame{Kind: KindAck, Dst: f.Src, Size: 11, Seq: f.Seq &^ (1<<flagBits - 1)}
				err := x.Transmit(reply)
				if err == nil {
					r.replies++
				}
				r.log = append(r.log, rxRecord{what: "reply", node: id, err: errString(err)})
			}
		})
		x.SetOnTxDone(func(f Frame) {
			r.log = append(r.log, rxRecord{what: "txdone", node: id, frame: f})
			if f.Seq&flagOffAfter != 0 {
				r.log = append(r.log, rxRecord{what: "off-after", node: id, err: errString(x.PowerOff())})
				sched.After(offAfterDown, x.PowerOn)
			}
		})
	}
	for _, op := range sc.ops {
		x := r.nodes[op.node]
		var fn func()
		switch op.kind {
		case opTransmit:
			f := Frame{Kind: KindData, Dst: op.dst, Size: op.size, Seq: op.seq}
			fn = func() { r.log = append(r.log, rxRecord{what: "tx", node: op.node, err: errString(x.Transmit(f))}) }
		case opPowerOff:
			fn = func() {
				r.log = append(r.log, rxRecord{what: "off", node: op.node, err: errString(x.PowerOff())})
				sched.After(op.down, x.PowerOn)
			}
		case opFail:
			fn = func() {
				x.SetFailed(true)
				sched.After(op.down, func() { x.SetFailed(false) })
			}
		case opPowerOn:
			fn = x.PowerOn
		}
		if _, err := sched.Schedule(op.at, fn); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// sameSnapshot compares two meter snapshots bit for bit.
func sameSnapshot(a, b []energy.StateSnapshot) bool {
	return slices.EqualFunc(a, b, func(x, y energy.StateSnapshot) bool {
		return x.State == y.State && x.Time == y.Time &&
			math.Float64bits(float64(x.Energy)) == math.Float64bits(float64(y.Energy))
	})
}

// checkRxEquivalence runs a scenario on Channel/Transceiver and on the
// reference in lockstep and fails on the first divergence: after every
// event it compares the clock, Processed, Pending, Stats, the callback
// and meter-transition records with their frames, and every node's Busy,
// IdleFor and meter Snapshot. It returns the reference run for
// coverage accounting.
func checkRxEquivalence(t testing.TB, sc rxScenario) *rxRun {
	t.Helper()
	got, want := newRxRun(t, sc, false), newRxRun(t, sc, true)
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("n=%d policy=%d loss=%v wake=%v spacing=%v, %d ops: %s",
			sc.n, sc.policy, sc.loss, sc.wake, sc.spacing, len(sc.ops), fmt.Sprintf(format, args...))
	}
	checked := 0
	for step := 0; ; step++ {
		g, w := got.sched.Step(), want.sched.Step()
		if g != w {
			fatalf("step %d: Step() = %v, reference %v", step, g, w)
		}
		if !g {
			return want
		}
		if got.sched.Now() != want.sched.Now() || got.sched.Processed != want.sched.Processed ||
			got.sched.Pending() != want.sched.Pending() {
			fatalf("step %d: clock/Processed/Pending = %v/%d/%d, reference %v/%d/%d", step,
				got.sched.Now(), got.sched.Processed, got.sched.Pending(),
				want.sched.Now(), want.sched.Processed, want.sched.Pending())
		}
		if gs, ws := got.stats(), want.stats(); gs != ws {
			fatalf("step %d at %v: Stats = %+v, reference %+v", step, got.sched.Now(), gs, ws)
		}
		if len(got.log) != len(want.log) || !slices.Equal(got.log[checked:], want.log[checked:]) {
			fatalf("step %d at %v: records %+v, reference %+v", step, got.sched.Now(), got.log[checked:], want.log[checked:])
		}
		checked = len(got.log)
		for i, x := range got.nodes {
			y := want.nodes[i]
			if x.Busy() != y.Busy() {
				fatalf("step %d at %v: node %d Busy = %v, reference %v", step, got.sched.Now(), i, x.Busy(), y.Busy())
			}
			gi, gok := x.IdleFor()
			wi, wok := y.IdleFor()
			if gi != wi || gok != wok {
				fatalf("step %d at %v: node %d IdleFor = %v,%v, reference %v,%v", step, got.sched.Now(), i, gi, gok, wi, wok)
			}
			if gm, wm := x.Meter().Snapshot(), y.Meter().Snapshot(); !sameSnapshot(gm, wm) {
				fatalf("step %d at %v: node %d meter %+v, reference %+v", step, got.sched.Now(), i, gm, wm)
			}
		}
	}
}

// TestReceptionEquivalence drives seeded random scenarios — overlapping
// transmissions, power-offs and power-ons, crashes and recoveries,
// synchronous replies from receive callbacks and power-offs from
// tx-done callbacks — through the epoch-based receptions and the
// list-based reference, under every overhear policy, with and without
// noise loss and wake-up latency, and requires identical observable
// behavior after every event.
func TestReceptionEquivalence(t *testing.T) {
	trials := 240
	if testing.Short() {
		trials = 60
	}
	var cover struct {
		Stats
		aborted, replies int
	}
	for trial := range trials {
		rng := rand.New(rand.NewSource(int64(trial)))
		data := make([]byte, 2+3*(20+rng.Intn(100)))
		rng.Read(data)
		// Cycle the policy and loss deterministically so every
		// combination runs; the rest of the header stays random.
		data[0] = byte(rng.Intn(6) + 6*(trial%3))
		data[1] = data[1]&^1 | byte(trial/3%2)
		sc := decodeRxScenario(data)
		run := checkRxEquivalence(t, sc)
		st := run.ref.stats
		cover.Collisions += st.Collisions
		cover.NoiseLosses += st.NoiseLosses
		cover.Overhears += st.Overhears
		cover.Deliveries += st.Deliveries
		cover.aborted += run.ref.aborted
		cover.replies += run.replies
	}
	// The scenarios must exercise every reception outcome, aborts and
	// mid-batch replies.
	if cover.Collisions == 0 || cover.NoiseLosses == 0 || cover.Overhears == 0 || cover.Deliveries == 0 ||
		cover.aborted == 0 || cover.replies == 0 {
		t.Errorf("scenarios miss an outcome: %+v", cover)
	}
}

// FuzzReceptions decodes arbitrary bytes into a reception scenario and
// checks Channel/Transceiver against the list-based reference.
func FuzzReceptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRxEquivalence(t, decodeRxScenario(data))
	})
}
