package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bulktx/internal/core"
	"bulktx/internal/energy"
	"bulktx/internal/mac"
	"bulktx/internal/metrics"
	"bulktx/internal/params"
	"bulktx/internal/radio"
	"bulktx/internal/routing"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
	"bulktx/internal/trace"
	"bulktx/internal/units"
	"bulktx/internal/workload"
)

// forwarder is the send-immediately data plane of the two baseline
// models: packets hop along the routing tree with no buffering beyond
// the MAC queue.
type forwarder struct {
	id        int
	m         *mac.MAC
	tree      *routing.Tree
	header    units.ByteSize
	onDeliver func(core.Packet)
	// probe, when non-nil, records per-hop packet provenance. The nil
	// check per forwarded packet is the whole cost of disabled tracing
	// on this path.
	probe *trace.Collector
}

func newForwarder(
	id int,
	m *mac.MAC,
	tree *routing.Tree,
	header units.ByteSize,
	onDeliver func(core.Packet),
	probe *trace.Collector,
) *forwarder {
	f := &forwarder{id: id, m: m, tree: tree, header: header, onDeliver: onDeliver, probe: probe}
	m.SetUpper(f)
	return f
}

// Sent ignores the MAC's sent frames: a forwarder keeps no state per
// packet.
func (f *forwarder) Sent(radio.Frame) {}

// Dropped ignores the MAC's drops; tracing records them (see
// wireTraceMACDrops).
func (f *forwarder) Dropped(radio.Frame, mac.DropReason) {}

// submit routes one packet from its source. Its frame payload is boxed
// here, once: relays pass the same box on (see Receive).
func (f *forwarder) submit(p core.Packet) { f.route(p, p) }

// route delivers p locally or sends it to the next hop with payload,
// the boxed p, as its frame payload.
func (f *forwarder) route(p core.Packet, payload any) {
	if p.Dst == f.id {
		if f.onDeliver != nil {
			f.onDeliver(p)
		}
		return
	}
	nh, ok := f.tree.NextHop(f.id)
	if !ok {
		// Disconnected (a churn-failed relay, or a layout hole): the
		// packet is lost here, and traced provenance must say so or the
		// packet would vanish from the stream without a terminal event.
		if f.probe != nil {
			f.probe.PacketDropped(f.id, p.Src, p.Dst, p.Seq, "no-route")
		}
		return
	}
	frame := radio.Frame{
		Kind:    radio.KindData,
		Dst:     radio.NodeID(nh),
		Size:    p.Size + f.header,
		Payload: payload,
	}
	// Queue overflow is the model's loss mechanism under contention; the
	// MAC counts the rejection and reports it through the error alone.
	if err := f.m.Send(frame); err != nil && f.probe != nil {
		f.probe.PacketDropped(f.id, p.Src, p.Dst, p.Seq, "queue-full")
	}
}

// Receive relays or delivers a packet the MAC delivered, relaying the
// received payload box rather than boxing the packet again.
func (f *forwarder) Receive(frame radio.Frame) {
	p, ok := frame.Payload.(core.Packet)
	if !ok {
		return
	}
	if f.probe != nil && p.Dst != f.id {
		f.probe.PacketForwarded(f.id, p.Src, p.Dst, p.Seq)
	}
	f.route(p, frame.Payload)
}

// wireTraceRadio registers a radio's meter with the collector and
// forwards its effective state transitions as trace events. A nil
// collector leaves the meter's transition hook nil — the zero-cost
// fast path.
func wireTraceRadio(tr *trace.Collector, node int, name string, x *radio.Transceiver) {
	if tr == nil {
		return
	}
	tr.RegisterMeter(node, name, x.Meter())
	x.Meter().SetOnTransition(func(from, to energy.State) {
		tr.StateChange(node, name, from, to)
	})
}

// tracedDeliver wraps a sink delivery callback with provenance
// recording (identity on untraced runs or non-sink nodes).
func tracedDeliver(tr *trace.Collector, node int, deliver func(core.Packet)) func(core.Packet) {
	if tr == nil || deliver == nil {
		return deliver
	}
	return func(p core.Packet) {
		tr.PacketDelivered(node, p.Src, p.Dst, p.Seq)
		deliver(p)
	}
}

// wireTraceMACDrops records data packets a MAC accepted and later
// abandoned (retry limit, radio off), ahead of the MAC's upper layer,
// which it wraps. Synchronous queue-full rejections are not among them
// — Send reports those through its error, and the rejected frame's
// holder records the drop — and control/burst frames carry non-Packet
// payloads and are skipped (the agent reports those losses through its
// own packet observer), so each lost packet traces exactly once.
func wireTraceMACDrops(tr *trace.Collector, node int, m *mac.MAC) {
	if tr == nil {
		return
	}
	m.SetUpper(tracedDrops{Upper: m.Upper(), tr: tr, node: node})
}

// tracedDrops is a MAC's upper layer with its drops traced.
type tracedDrops struct {
	mac.Upper
	tr   *trace.Collector
	node int
}

// Dropped traces a dropped data packet, then passes the drop on.
func (d tracedDrops) Dropped(f radio.Frame, reason mac.DropReason) {
	if p, ok := f.Payload.(core.Packet); ok {
		d.tr.PacketDropped(d.node, p.Src, p.Dst, p.Seq, reason.String())
	}
	d.Upper.Dropped(f, reason)
}

// wireTraceAgent maps a BCP agent's packet observer onto the collector:
// store-and-forward events become forwards, everything else a drop
// named by the event.
func wireTraceAgent(tr *trace.Collector, node int, a *core.Agent) {
	if tr == nil {
		return
	}
	a.SetOnPacket(func(ev core.PacketEvent, p core.Packet) {
		if ev == core.PacketForwarded {
			tr.PacketForwarded(node, p.Src, p.Dst, p.Seq)
			return
		}
		tr.PacketDropped(node, p.Src, p.Dst, p.Seq, ev.String())
	})
}

// Run executes one simulation of cfg.Scenario() and returns its
// outcomes.
func Run(cfg Config) (Result, error) {
	s, err := cfg.Scenario()
	if err != nil {
		return Result{}, err
	}
	return RunScenario(s)
}

// RunScenario executes one simulation of a built Scenario.
func RunScenario(s *Scenario) (Result, error) {
	sched := sim.NewScheduler(s.cfg.Seed)
	recorder := workload.NewRecorder(sched)
	var tr *trace.Collector
	if s.traceOn {
		tr = trace.NewCollector(s.traceOpts, sched.Now)
	}
	net, err := buildNetwork(s, sched, recorder, tr)
	if err != nil {
		return Result{}, err
	}

	// Workload: senders toward the sink. Dual-model CBR senders stagger
	// their start across one burst-accumulation interval so threshold
	// crossings do not synchronize into an artificial burst storm (the
	// random processes desynchronize naturally).
	var startWindow time.Duration
	if s.cfg.Model == ModelDual {
		startWindow = s.cfg.Rate.TimeFor(params.SensorPayload) * time.Duration(s.cfg.BurstPackets)
	}
	var generators []source
	for _, sender := range s.senderIDs {
		emitFn := net.emit[sender]
		if tr != nil {
			node, inner := sender, emitFn
			emitFn = func(p core.Packet) {
				tr.PacketGenerated(node, p.Src, p.Dst, p.Seq)
				inner(p)
			}
		}
		// A capped transfer ends by flushing the sender's BCP buffer; the
		// forwarding models hold nothing back.
		var flush func()
		if s.cfg.Model == ModelDual {
			flush = net.agents[sender].Flush
		}
		g, err := newSource(s, sched, sender, startWindow, flush, emitFn)
		if err != nil {
			return Result{}, err
		}
		generators = append(generators, g)
	}

	// Periodic energy sampling rides the ordinary event queue; it is
	// scheduled at all only when the trace options ask for it, so the
	// untraced queue carries no extra events.
	if tr != nil && tr.SampleInterval() > 0 {
		interval := tr.SampleInterval()
		var tick func()
		tick = func() {
			tr.TakeSample()
			sched.After(interval, tick)
		}
		sched.After(interval, tick)
	}

	// Churn: the schedule was drawn at build time, within the run; each
	// event toggles every radio of its node.
	for _, ev := range s.churnEvents {
		if _, err := sched.Schedule(sim.Time(ev.at), func() {
			for _, r := range net.radios {
				r.macs[ev.node].Transceiver().SetFailed(ev.down)
			}
		}); err != nil {
			return Result{}, err
		}
	}

	sched.RunUntil(s.cfg.Duration)
	for _, g := range generators {
		g.Stop()
	}

	// Collect metrics.
	var res Result
	for _, g := range generators {
		_, bits := g.Generated()
		res.GeneratedBits += bits
	}
	res.DeliveredBits = recorder.DeliveredBits()
	res.Delays = recorder.TakeDelays()
	res.Events = sched.Processed

	var overhear units.Energy
	if r := net.sensor; r != nil {
		states := energy.States()
		for _, m := range r.macs {
			meter := m.Transceiver().Meter()
			// Sum in canonical state order: float addition is not
			// associative, so any other order would make TotalEnergy
			// differ in its last bits.
			for _, state := range states {
				e := meter.EnergyIn(state)
				if e == 0 {
					continue
				}
				if state == energy.Overhear {
					overhear += e
				}
				res.TotalEnergy += e
			}
		}
		res.SensorStats = r.ch.Stats()
	}
	if r := net.wifi; r != nil {
		for _, m := range r.macs {
			res.TotalEnergy += m.Transceiver().Meter().Total()
		}
		res.WifiStats = r.ch.Stats()
	}
	res.IdealEnergy = res.TotalEnergy - overhear
	for _, a := range net.agents {
		res.AgentStats = addAgentStats(res.AgentStats, a.Stats())
	}
	if tr != nil {
		rec := tr.Finish()
		res.PerNode = rec.PerNode
		res.Trace = rec
	}
	return res, nil
}

// radioSpec is one radio of a model: its channel, how each node
// attaches to it, and the MAC on top.
type radioSpec struct {
	cfg      radio.Config
	overhear radio.OverhearPolicy
	// startOn attaches the radio powered on; radios attached off wake
	// on demand.
	startOn bool
	// freeIdle makes idling a free base cost (the paper's charging of
	// the sensor radio).
	freeIdle bool
	mac      mac.Params
}

// radioSpecs returns the sensor and 802.11 radios as the baseline
// models use them. The sensor radio's idle is free and its overhearing
// is charged into the Overhear ledger, so both Sensor-ideal and
// Sensor-header totals come out of one run; the 802.11 radio is always
// on and charged in full.
func (s *Scenario) radioSpecs() (sensor, wifi radioSpec) {
	sensor = radioSpec{
		cfg: radio.Config{
			Name:       "sensor",
			Profile:    s.cfg.SensorProfile,
			LossProb:   s.cfg.SensorLoss,
			HeaderSize: params.SensorHeader,
		},
		overhear: radio.OverhearHeaderOnly,
		startOn:  true,
		freeIdle: true,
		mac:      mac.SensorParams(),
	}
	wifi = radioSpec{
		cfg: radio.Config{
			Name:       "wifi",
			Profile:    s.cfg.WifiProfile,
			Range:      s.cfg.WifiRange,
			LossProb:   s.cfg.WifiLoss,
			HeaderSize: params.WifiHeader,
		},
		overhear: radio.OverhearFull,
		startOn:  true,
		mac:      mac.WifiParams(),
	}
	return sensor, wifi
}

// radioNet is one attached radio: its channel and each node's MAC, in
// node order.
type radioNet struct {
	ch   *radio.Channel
	macs []*mac.MAC
}

// attachRadio creates the spec's channel over the layout and attaches
// every node to it with its MAC. Neither Attach nor mac.New schedules
// an event or draws a random number, so attaching all of one radio's
// nodes before the next radio's leaves the run unchanged.
func attachRadio(sched *sim.Scheduler, layout *topo.Layout, spec radioSpec) (*radioNet, error) {
	ch, err := radio.NewChannel(sched, spec.cfg, layout)
	if err != nil {
		return nil, err
	}
	r := &radioNet{ch: ch, macs: make([]*mac.MAC, layout.Len())}
	for i := range r.macs {
		x, err := ch.Attach(radio.NodeID(i), spec.overhear, spec.startOn)
		if err != nil {
			return nil, err
		}
		if spec.freeIdle {
			x.Meter().SetFreeState(energy.Idle, true)
		}
		if r.macs[i], err = mac.New(spec.mac, sched, x); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// network is one built model: its attached radios, the BCP agents
// (dual model only) and each node's packet entry point.
type network struct {
	// radios lists the attached radios, sensor first; sensor and wifi
	// name them (nil when the model lacks that radio).
	radios       []*radioNet
	sensor, wifi *radioNet
	agents       []*core.Agent
	emit         []func(core.Packet)
}

// buildNetwork attaches the model's radios and wires each node's data
// plane: a hop-by-hop forwarder over the one radio of the sensor and
// 802.11 models, a BCP agent over both radios of the dual model.
func buildNetwork(
	s *Scenario,
	sched *sim.Scheduler,
	recorder *workload.Recorder,
	tr *trace.Collector,
) (*network, error) {
	layout, sink := s.layout, s.sinkID
	nodes := layout.Len()
	sensor, wifi := s.radioSpecs()
	if s.cfg.Model == ModelDual {
		// Under BCP the sensor radio carries control and overhears for
		// free; the 802.11 radio sleeps between bursts and pays a
		// wake-up latency.
		sensor.overhear = radio.OverhearFree
		wifi.startOn = false
		wifi.cfg.WakeupLatency = params.WifiWakeupLatency
	}
	net := &network{emit: make([]func(core.Packet), nodes)}
	var err error
	if s.cfg.Model != ModelWifi {
		if net.sensor, err = attachRadio(sched, layout, sensor); err != nil {
			return nil, err
		}
		net.radios = append(net.radios, net.sensor)
	}
	if s.cfg.Model != ModelSensor {
		if net.wifi, err = attachRadio(sched, layout, wifi); err != nil {
			return nil, err
		}
		net.radios = append(net.radios, net.wifi)
	}

	// The forwarding models route along a tree at their one radio's
	// range; BCP agents route control over the sensor mesh and bursts
	// over a wifi tree or the shortcut learner.
	first := net.radios[0]
	firstCfg := first.ch.Config()
	var (
		tree      *routing.Tree
		mesh      *routing.Mesh
		wifiRoute core.NextHopper
	)
	if s.cfg.Model == ModelDual {
		if mesh, err = routing.BuildMesh(layout, s.cfg.SensorProfile.Range); err != nil {
			return nil, err
		}
		// A tree at the sensor range is the mesh's row toward the sink:
		// the learner's base tree always, and the 802.11 tree when the
		// two ranges match (the single-hop scenario, both 40 m).
		if s.cfg.UseShortcutLearner {
			sensorTree, err := mesh.Tree(sink)
			if err != nil {
				return nil, err
			}
			wifiRoute = routing.NewLearner(sensorTree, layout, s.cfg.WifiRange, true)
		} else if s.cfg.WifiRange == s.cfg.SensorProfile.Range {
			if wifiRoute, err = mesh.Tree(sink); err != nil {
				return nil, err
			}
		} else if wifiRoute, err = routing.BuildTree(layout, sink, s.cfg.WifiRange); err != nil {
			return nil, err
		}
	} else if tree, err = routing.BuildTree(layout, sink, firstCfg.Range); err != nil {
		return nil, err
	}

	// Trace registration stays node-major (each node's radios in order,
	// then its agent): the collector's registration order is the row
	// order of its samples.
	for i := 0; i < nodes; i++ {
		for _, r := range net.radios {
			wireTraceRadio(tr, i, r.ch.Config().Name, r.macs[i].Transceiver())
		}
		var deliver func(core.Packet)
		if i == sink {
			deliver = tracedDeliver(tr, i, recorder.Receive)
		}
		if s.cfg.Model != ModelDual {
			// The pure-802.11 model sends each sensor packet as its own
			// (inefficient) small frame, as nodes have no reason to batch.
			f := newForwarder(i, first.macs[i], tree, firstCfg.HeaderSize, deliver, tr)
			wireTraceMACDrops(tr, i, first.macs[i])
			net.emit[i] = f.submit
			continue
		}
		a, err := core.NewAgent(s.agentConfig(i), sched,
			net.sensor.macs[i], net.wifi.macs[i], mesh, wifiRoute, deliver)
		if err != nil {
			return nil, err
		}
		net.agents = append(net.agents, a)
		// The agent accounts for the 802.11 MAC's (burst-frame) drops
		// itself; tracing the sensor MAC's catches the delay-bound data
		// packets the CSMA MAC abandons.
		wireTraceMACDrops(tr, i, first.macs[i])
		wireTraceAgent(tr, i, a)
		net.emit[i] = a.Buffer
	}
	return net, nil
}

// source is the common surface of the workload generators.
type source interface {
	Stop()
	Generated() (packets uint64, bits int64)
}

// newSource builds and starts the configured traffic model for one
// sender. flush ends a capped transfer (see Config.Messages).
func newSource(
	s *Scenario,
	sched *sim.Scheduler,
	sender int,
	startWindow time.Duration,
	flush func(),
	emit func(core.Packet),
) (source, error) {
	rate, sink := s.cfg.Rate, s.sinkID
	switch s.cfg.Traffic {
	case TrafficPoisson:
		g, err := workload.NewPoisson(sched, sender, sink, rate, params.SensorPayload, emit)
		if err != nil {
			return nil, err
		}
		g.Start()
		return g, nil
	case TrafficOnOff:
		// Mean 2 s ON at 16x the mean rate; OFF sized so the long-run
		// average matches the configured rate: duty = 1/16 ->
		// meanOff = 15 * meanOn.
		const burstiness = 16
		meanOn := 2 * time.Second
		meanOff := (burstiness - 1) * meanOn
		g, err := workload.NewOnOff(sched, sender, sink,
			rate*burstiness, params.SensorPayload, meanOn, meanOff, emit)
		if err != nil {
			return nil, err
		}
		g.Start()
		return g, nil
	default:
		g, err := workload.NewCBR(sched, sender, sink, rate, params.SensorPayload, emit)
		if err != nil {
			return nil, err
		}
		if n := s.cfg.Messages; n > 0 {
			g.StartCapped(n, flush)
		} else {
			g.StartWithin(startWindow)
		}
		return g, nil
	}
}

func addAgentStats(a, b core.Stats) core.Stats {
	a.PacketsBuffered += b.PacketsBuffered
	a.PacketsDropped += b.PacketsDropped
	a.PacketsDelivered += b.PacketsDelivered
	a.PacketsForwarded += b.PacketsForwarded
	a.PacketsLost += b.PacketsLost
	a.Handshakes += b.Handshakes
	a.HandshakeFailures += b.HandshakeFailures
	a.WakeupResends += b.WakeupResends
	a.GrantsDenied += b.GrantsDenied
	a.GrantsReduced += b.GrantsReduced
	a.GrantsDeclined += b.GrantsDeclined
	a.BurstsSent += b.BurstsSent
	a.BurstsReceived += b.BurstsReceived
	a.FramesSent += b.FramesSent
	a.FramesLost += b.FramesLost
	a.ReceiverTimeouts += b.ReceiverTimeouts
	a.ThresholdAdaptations += b.ThresholdAdaptations
	a.SensorSends += b.SensorSends
	a.SensorForwards += b.SensorForwards
	return a
}

// RunScenarioMany executes runs seeded repetitions of a scenario
// (seeds base..base+runs-1) concurrently, in seed order. Repetitions
// share no state, so the output is identical to serial execution, and
// rep r of cfg.Scenario() equals Run(cfg) at seed base+r. Placement
// stays fixed across repetitions; the run seed varies channel noise,
// MAC backoff, arrival processes and the churn schedule. Grid sweeps
// should prefer the sweep package, which adds cross-cell batching and
// result caching.
func RunScenarioMany(s *Scenario, runs int, baseSeed int64) ([]Result, error) {
	return runSeeded(runs, func(r int) (Result, error) {
		return RunScenario(s.withSeed(baseSeed + int64(r)))
	})
}

// runSeeded fans repetitions over up to runtime.NumCPU workers,
// preserving order.
func runSeeded(runs int, run func(r int) (Result, error)) ([]Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("netsim: runs %d < 1", runs)
	}
	workers := min(runtime.NumCPU(), runs)
	out := make([]Result, runs)
	errs := make([]error, runs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= runs {
					return
				}
				out[r], errs[r] = run(r)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Summaries reduces repeated runs to the paper's three metrics.
func Summaries(results []Result) (goodput, normEnergy, idealEnergy metrics.Summary, meanDelay time.Duration) {
	gs := make([]float64, 0, len(results))
	es := make([]float64, 0, len(results))
	is := make([]float64, 0, len(results))
	var delaySum time.Duration
	for _, r := range results {
		gs = append(gs, r.Goodput())
		es = append(es, r.NormalizedEnergy())
		ideal := r.RunResult
		ideal.TotalEnergy = r.IdealEnergy
		is = append(is, ideal.NormalizedEnergy())
		delaySum += r.MeanDelay()
	}
	if len(results) > 0 {
		meanDelay = delaySum / time.Duration(len(results))
	}
	return metrics.Summarize(gs), metrics.Summarize(es), metrics.Summarize(is), meanDelay
}
