package core

import (
	"testing"
	"time"

	"bulktx/internal/energy"
	"bulktx/internal/mac"
	"bulktx/internal/params"
	"bulktx/internal/radio"
	"bulktx/internal/routing"
	"bulktx/internal/sim"
	"bulktx/internal/topo"
	"bulktx/internal/units"
)

// harness assembles a full dual-radio stack (two channels, two MACs per
// node, mesh + wifi tree routing, BCP agents) over a line topology.
type harness struct {
	sched     *sim.Scheduler
	layout    *topo.Layout
	sensorCh  *radio.Channel
	wifiCh    *radio.Channel
	agents    []*Agent
	delivered map[int][]Packet // per receiving node
}

type harnessOpts struct {
	nodes         int
	spacing       units.Meters
	wifiRange     units.Meters
	sensorLoss    float64
	wifiLoss      float64
	burstPackets  int
	cfgMut        func(i int, c *Config)
	wifiTreeRange units.Meters // range used for the wifi routing tree
}

func newHarness(t *testing.T, o harnessOpts) *harness {
	t.Helper()
	if o.spacing == 0 {
		o.spacing = 30
	}
	if o.wifiRange == 0 {
		o.wifiRange = 40
	}
	if o.wifiTreeRange == 0 {
		o.wifiTreeRange = o.wifiRange
	}
	if o.burstPackets == 0 {
		o.burstPackets = 10
	}
	h := &harness{
		sched:     sim.NewScheduler(1234),
		delivered: make(map[int][]Packet),
	}
	layout, err := topo.Line(o.nodes, o.spacing)
	if err != nil {
		t.Fatal(err)
	}
	h.layout = layout

	h.sensorCh, err = radio.NewChannel(h.sched, radio.Config{
		Name:       "sensor",
		Profile:    energy.Micaz(),
		LossProb:   o.sensorLoss,
		HeaderSize: params.SensorHeader,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}
	h.wifiCh, err = radio.NewChannel(h.sched, radio.Config{
		Name:          "wifi",
		Profile:       energy.Lucent11(),
		Range:         o.wifiRange,
		LossProb:      o.wifiLoss,
		WakeupLatency: params.WifiWakeupLatency,
		HeaderSize:    params.WifiHeader,
	}, layout)
	if err != nil {
		t.Fatal(err)
	}

	// Sink at the last node; both trees route toward it.
	sink := o.nodes - 1
	mesh, err := routing.BuildMesh(layout, 40)
	if err != nil {
		t.Fatal(err)
	}
	wifiTree, err := routing.BuildTree(layout, sink, o.wifiTreeRange)
	if err != nil {
		t.Fatal(err)
	}

	h.agents = make([]*Agent, o.nodes)
	for i := 0; i < o.nodes; i++ {
		sx, err := h.sensorCh.Attach(radio.NodeID(i), radio.OverhearFree, true)
		if err != nil {
			t.Fatal(err)
		}
		wx, err := h.wifiCh.Attach(radio.NodeID(i), radio.OverhearFull, false)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := mac.New(mac.SensorParams(), h.sched, sx)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := mac.New(mac.WifiParams(), h.sched, wx)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(i, o.burstPackets)
		if o.cfgMut != nil {
			o.cfgMut(i, &cfg)
		}
		node := i
		h.agents[i], err = NewAgent(cfg, h.sched, sm, wm, mesh, wifiTree,
			func(p Packet) { h.delivered[node] = append(h.delivered[node], p) })
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// generate injects n packets at node src destined for dst.
func (h *harness) generate(src, dst, n int) {
	for i := 0; i < n; i++ {
		h.agents[src].Buffer(Packet{
			Src:     src,
			Dst:     dst,
			Seq:     uint64(i + 1),
			Size:    params.SensorPayload,
			Created: h.sched.Now(),
		})
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(0, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative node", func(c *Config) { c.NodeID = -1 }},
		{"zero threshold", func(c *Config) { c.BurstThreshold = 0 }},
		{"cap below threshold", func(c *Config) { c.BufferCap = c.BurstThreshold - 1 }},
		{"zero payload", func(c *Config) { c.SensorPayload = 0 }},
		{"negative header", func(c *Config) { c.WifiHeader = -1 }},
		{"zero ack timeout", func(c *Config) { c.AckTimeout = 0 }},
		{"negative retries", func(c *Config) { c.MaxWakeupRetries = -1 }},
		{"negative backoff", func(c *Config) { c.RetryBackoff = -1 }},
		{"zero recv timeout", func(c *Config) { c.ReceiverIdleTimeout = 0 }},
		{"negative linger", func(c *Config) { c.PostBurstLinger = -1 }},
		{"negative min grant", func(c *Config) { c.MinGrant = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig(0, 10)
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate accepted invalid config")
			}
		})
	}
}

func TestNewAgentValidation(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2})
	cfg := DefaultConfig(0, 10)
	if _, err := NewAgent(cfg, h.sched, nil, nil, nil, nil, nil); err == nil {
		t.Error("NewAgent accepted nil dependencies")
	}
	bad := cfg
	bad.BurstThreshold = 0
	mesh, err := routing.BuildMesh(h.layout, 40)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildTree(h.layout, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	sm := h.agents[0] // reuse wired MACs is not possible; only validate config path
	_ = sm
	if _, err := NewAgent(bad, h.sched, nil, nil, mesh, tree, nil); err == nil {
		t.Error("NewAgent accepted invalid config")
	}
}

func TestSingleHopBurstDelivery(t *testing.T) {
	// Two nodes: sender 0, sink 1. Threshold 10 packets. Generating 10
	// packets must trigger exactly one handshake and deliver all 10.
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	h.generate(0, 1, 10)
	h.sched.RunUntil(10 * time.Second)

	got := h.delivered[1]
	if len(got) != 10 {
		t.Fatalf("sink received %d packets, want 10", len(got))
	}
	st := h.agents[0].Stats()
	if st.Handshakes != 1 {
		t.Errorf("handshakes = %d, want 1", st.Handshakes)
	}
	if st.BurstsSent != 1 {
		t.Errorf("bursts sent = %d, want 1", st.BurstsSent)
	}
	if st.FramesSent != 1 {
		t.Errorf("frames sent = %d, want 1 (10 x 32 B fits one 1024 B frame)", st.FramesSent)
	}
	rst := h.agents[1].Stats()
	if rst.BurstsReceived != 1 {
		t.Errorf("bursts received = %d, want 1", rst.BurstsReceived)
	}
	if rst.PacketsDelivered != 10 {
		t.Errorf("packets delivered = %d, want 10", rst.PacketsDelivered)
	}
}

func TestBelowThresholdNoHandshake(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	h.generate(0, 1, 9)
	h.sched.RunUntil(10 * time.Second)
	if len(h.delivered[1]) != 0 {
		t.Errorf("sink received %d packets below threshold", len(h.delivered[1]))
	}
	if st := h.agents[0].Stats(); st.Handshakes != 0 {
		t.Errorf("handshakes = %d, want 0", st.Handshakes)
	}
	if got := h.agents[0].BufferedBytes(); got != 9*32 {
		t.Errorf("buffered %v, want 288 B", got)
	}
	// The radio must never have been woken.
	if w := h.agents[0].wifi.Transceiver().Meter().Wakeups(); w != 0 {
		t.Errorf("sender wifi wakeups = %d, want 0", w)
	}
}

func TestLargeBurstFragmentation(t *testing.T) {
	// 100 packets of 32 B = 3200 B: 4 wifi frames (32 packets each, last 4).
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 100})
	h.generate(0, 1, 100)
	h.sched.RunUntil(30 * time.Second)
	if got := len(h.delivered[1]); got != 100 {
		t.Fatalf("sink received %d packets, want 100", got)
	}
	if st := h.agents[0].Stats(); st.FramesSent != 4 {
		t.Errorf("frames sent = %d, want 4", st.FramesSent)
	}
	// Packets preserve order and content through fragmentation.
	for i, p := range h.delivered[1] {
		if p.Seq != uint64(i+1) {
			t.Fatalf("packet %d has seq %d: order not preserved", i, p.Seq)
		}
		if p.Src != 0 || p.Dst != 1 {
			t.Fatalf("packet endpoints corrupted: %+v", p)
		}
	}
}

func TestRadioTurnsOffAfterBurst(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	h.generate(0, 1, 10)
	h.sched.RunUntil(20 * time.Second)
	for i, a := range h.agents {
		x := a.wifi.Transceiver()
		if x.On() || x.Waking() {
			t.Errorf("node %d wifi radio still on after burst", i)
		}
	}
	// Exactly one wake-up per side.
	if w := h.agents[0].wifi.Transceiver().Meter().Wakeups(); w != 1 {
		t.Errorf("sender wakeups = %d, want 1", w)
	}
	if w := h.agents[1].wifi.Transceiver().Meter().Wakeups(); w != 1 {
		t.Errorf("receiver wakeups = %d, want 1", w)
	}
}

func TestMultipleBursts(t *testing.T) {
	// 35 packets injected at once with threshold 10: the first handshake
	// fires at packet 10 and ships the 10 packets requested; the agent
	// then "tries to empty its buffer" (paper Section 3), so a second
	// handshake ships the remaining 25 in one burst.
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	h.generate(0, 1, 35)
	h.sched.RunUntil(60 * time.Second)
	if got := len(h.delivered[1]); got != 35 {
		t.Errorf("sink received %d packets, want 35", got)
	}
	if st := h.agents[0].Stats(); st.BurstsSent != 2 {
		t.Errorf("bursts = %d, want 2 (10 then the remaining 25)", st.BurstsSent)
	}
	if got := h.agents[0].BufferedBytes(); got != 0 {
		t.Errorf("left buffered %v, want 0", got)
	}
}

func TestStoreAndForwardRelay(t *testing.T) {
	// Three nodes, wifi range = one hop: 0 -> 1 -> 2. Node 1 re-buffers
	// node 0's packets and relays them with its own handshake.
	h := newHarness(t, harnessOpts{nodes: 3, burstPackets: 10})
	h.generate(0, 2, 10)
	h.sched.RunUntil(60 * time.Second)
	if got := len(h.delivered[2]); got != 10 {
		t.Fatalf("sink received %d packets, want 10", got)
	}
	mid := h.agents[1].Stats()
	if mid.PacketsForwarded != 10 {
		t.Errorf("relay forwarded = %d, want 10", mid.PacketsForwarded)
	}
	if mid.BurstsSent != 1 || mid.BurstsReceived != 1 {
		t.Errorf("relay bursts sent/received = %d/%d, want 1/1",
			mid.BurstsSent, mid.BurstsReceived)
	}
}

func TestMultiHopWakeupLongRangeWifi(t *testing.T) {
	// The paper's MH case: wifi reaches the sink directly (wifi tree is
	// one hop) while the wake-up message travels hop-by-hop over the
	// sensor radio.
	h := newHarness(t, harnessOpts{
		nodes:         5,
		spacing:       40,
		wifiRange:     250,
		wifiTreeRange: 250,
		burstPackets:  10,
	})
	h.generate(0, 4, 10)
	h.sched.RunUntil(30 * time.Second)
	if got := len(h.delivered[4]); got != 10 {
		t.Fatalf("sink received %d packets, want 10", got)
	}
	// Intermediate nodes never buffer data or touch their wifi radios.
	for i := 1; i <= 3; i++ {
		st := h.agents[i].Stats()
		if st.PacketsForwarded != 0 {
			t.Errorf("node %d forwarded %d packets over wifi path", i, st.PacketsForwarded)
		}
		if w := h.agents[i].wifi.Transceiver().Meter().Wakeups(); w != 0 {
			t.Errorf("node %d woke its wifi radio %d times", i, w)
		}
	}
	// Sender completed in a single one-hop burst.
	if st := h.agents[0].Stats(); st.BurstsSent != 1 {
		t.Errorf("sender bursts = %d, want 1", st.BurstsSent)
	}
}

func TestWakeupRetryUnderLoss(t *testing.T) {
	// 30% sensor loss: wake-up or ack may vanish; the sender must retry
	// and eventually deliver.
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10, sensorLoss: 0.3})
	h.generate(0, 1, 10)
	h.sched.RunUntil(120 * time.Second)
	if got := len(h.delivered[1]); got != 10 {
		t.Fatalf("sink received %d packets under loss, want 10", got)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	// Cap the buffer at 20 packets and inject 50 without letting the
	// simulation run: 30 must drop. (The handshake that fires at packet
	// 20 cannot consume anything until the scheduler runs.)
	h := newHarness(t, harnessOpts{
		nodes:        2,
		burstPackets: 20,
		cfgMut: func(i int, c *Config) {
			c.BufferCap = 20 * params.SensorPayload
		},
	})
	h.generate(0, 1, 50)
	st := h.agents[0].Stats()
	if st.PacketsBuffered != 20 {
		t.Errorf("buffered = %d, want 20", st.PacketsBuffered)
	}
	if st.PacketsDropped != 30 {
		t.Errorf("dropped = %d, want 30", st.PacketsDropped)
	}
}

func TestReceiverGrantReducedByBufferSpace(t *testing.T) {
	// Relay node 1 has a small buffer; sender 0 requests more than fits.
	// Node 1 must grant less, and the remainder stays at node 0.
	h := newHarness(t, harnessOpts{
		nodes:        3,
		burstPackets: 40,
		cfgMut: func(i int, c *Config) {
			if i == 1 {
				c.BufferCap = 25 * params.SensorPayload
				c.BurstThreshold = 25 * params.SensorPayload
			}
		},
	})
	h.generate(0, 2, 40)
	h.sched.RunUntil(2 * time.Second)
	rst := h.agents[1].Stats()
	if rst.GrantsReduced == 0 {
		t.Error("relay never reduced a grant despite a small buffer")
	}
	h.sched.RunUntil(120 * time.Second)
	// The reduced grant ships 25 packets; the remaining 15 sit below the
	// sender's threshold awaiting more data (correct BCP behaviour).
	if got := len(h.delivered[2]); got != 25 {
		t.Errorf("sink received %d packets, want 25", got)
	}
	if got := h.agents[0].BufferedBytes(); got != 15*32 {
		t.Errorf("sender kept %v buffered, want 480 B", got)
	}
	// Topping the sender back over its threshold releases another
	// relay-buffer's worth (again capped at 25 by the grant).
	h.generate(0, 2, 25)
	h.sched.RunUntil(240 * time.Second)
	if got := len(h.delivered[2]); got != 50 {
		t.Errorf("sink received %d packets after refill, want 50", got)
	}
	if got := h.agents[0].BufferedBytes(); got != 15*32 {
		t.Errorf("sender kept %v buffered after refill, want 480 B", got)
	}
}

func TestSinkGrantsFullBuffer(t *testing.T) {
	// Packets destined to the receiving node are delivered, not buffered,
	// so the sink's grant never shrinks.
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 100})
	h.generate(0, 1, 100)
	h.sched.RunUntil(30 * time.Second)
	if st := h.agents[1].Stats(); st.GrantsReduced != 0 {
		t.Errorf("sink reduced %d grants", st.GrantsReduced)
	}
	if got := h.agents[1].BufferedBytes(); got != 0 {
		t.Errorf("sink buffered %v, want 0", got)
	}
}

func TestMinGrantDecline(t *testing.T) {
	// Paper extension: sender declines when the grant falls below s*.
	h := newHarness(t, harnessOpts{
		nodes:        3,
		burstPackets: 40,
		cfgMut: func(i int, c *Config) {
			switch i {
			case 0:
				c.MinGrant = 30 * params.SensorPayload
				c.RetryBackoff = time.Hour // do not retry within the test
			case 1:
				// Relay with room for only 10 packets: grant below MinGrant.
				c.BufferCap = 10 * params.SensorPayload
				c.BurstThreshold = 10 * params.SensorPayload
			}
		},
	})
	h.generate(0, 2, 40)
	h.sched.RunUntil(5 * time.Second)
	st := h.agents[0].Stats()
	if st.GrantsDeclined != 1 {
		t.Errorf("grants declined = %d, want 1", st.GrantsDeclined)
	}
	if st.BurstsSent != 0 {
		t.Errorf("bursts sent = %d, want 0 after decline", st.BurstsSent)
	}
	// Data stays buffered at the sender.
	if got := h.agents[0].BufferedBytes(); got != 40*32 {
		t.Errorf("buffered %v, want 1280 B", got)
	}
}

func TestGrantDeniedWhenReceiverFull(t *testing.T) {
	// Relay buffer completely occupied: wake-up gets no ack; sender
	// retries then fails the handshake.
	h := newHarness(t, harnessOpts{
		nodes:        3,
		burstPackets: 10,
		cfgMut: func(i int, c *Config) {
			if i == 0 {
				c.MaxWakeupRetries = 1
				c.RetryBackoff = time.Hour
				c.AckTimeout = 50 * time.Millisecond
			}
			if i == 1 {
				c.BufferCap = 10 * params.SensorPayload
				c.BurstThreshold = 10 * params.SensorPayload
				// Keep node 1 from draining its buffer during the test.
				c.MinGrant = 0
			}
		},
	})
	// Pre-fill the relay's buffer with its own traffic toward the sink;
	// its handshake to the sink is suppressed by making its threshold
	// unreachable after filling.
	relay := h.agents[1]
	relay.cfg.BurstThreshold = 11 * params.SensorPayload
	h.generate(1, 2, 10) // fills relay buffer exactly
	h.generate(0, 2, 10) // sender 0 now asks relay for space
	h.sched.RunUntil(5 * time.Second)

	if st := relay.Stats(); st.GrantsDenied == 0 {
		t.Error("full relay never denied a grant")
	}
	if st := h.agents[0].Stats(); st.HandshakeFailures == 0 {
		t.Error("sender never abandoned the handshake")
	}
}

func TestDeliveryDelayRecorded(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	h.generate(0, 1, 10)
	h.sched.RunUntil(10 * time.Second)
	for _, p := range h.delivered[1] {
		if p.Created != 0 {
			t.Errorf("packet created at %v, want 0 (generation time preserved)", p.Created)
		}
	}
}

func TestBufferToSelfDeliversImmediately(t *testing.T) {
	h := newHarness(t, harnessOpts{nodes: 2, burstPackets: 10})
	h.agents[0].Buffer(Packet{Src: 0, Dst: 0, Seq: 1, Size: 32})
	if got := len(h.delivered[0]); got != 1 {
		t.Errorf("self-addressed packet delivered %d times, want 1", got)
	}
	if h.agents[0].BufferedBytes() != 0 {
		t.Error("self-addressed packet was buffered")
	}
}

func TestEnergyFollowsBreakEvenDirection(t *testing.T) {
	// End-to-end energy sanity: shipping 500 packets (16 KB) in bulk via
	// BCP must cost less total 802.11+overhead energy than the same data
	// would cost over the sensor radio, and sending only 10 packets (320
	// B, below s*) must cost more. This is the paper's core claim played
	// through the full protocol stack.
	run := func(packets int) (units.Energy, int) {
		h := newHarness(t, harnessOpts{nodes: 2, burstPackets: packets})
		h.generate(0, 1, packets)
		h.sched.RunUntil(5 * time.Minute)
		var wifi units.Energy
		for _, a := range h.agents {
			wifi += a.wifi.Transceiver().Meter().Total()
			wifi += a.sensor.Transceiver().Meter().EnergyIn(energy.Tx)
			wifi += a.sensor.Transceiver().Meter().EnergyIn(energy.Rx)
		}
		return wifi, len(h.delivered[1])
	}
	sensorCost := func(packets int) units.Energy {
		perBit := energy.Micaz().LinkEnergyPerBit()
		bits := float64(packets) * float64((params.SensorPayload + params.SensorHeader).Bits())
		return units.Energy(bits) * perBit
	}

	bigDual, gotBig := run(500)
	if gotBig != 500 {
		t.Fatalf("bulk run delivered %d/500", gotBig)
	}
	if bigDual >= sensorCost(500) {
		t.Errorf("bulk: dual-radio cost %v not below sensor cost %v (above s*)",
			bigDual, sensorCost(500))
	}

	smallDual, gotSmall := run(10)
	if gotSmall != 10 {
		t.Fatalf("small run delivered %d/10", gotSmall)
	}
	if smallDual <= sensorCost(10) {
		t.Errorf("small: dual-radio cost %v not above sensor cost %v (below s*)",
			smallDual, sensorCost(10))
	}
}

// fillQueue buffers n packets for the sink (node 2) toward next hop nh,
// bypassing routing, with sequence numbers base, base+1, ... and the
// given creation time.
func fillQueue(a *Agent, nh, n int, base uint64, created sim.Time) {
	q := a.queue(nh)
	for i := 0; i < n; i++ {
		p := Packet{Src: a.cfg.NodeID, Dst: 2, Seq: base + uint64(i),
			Size: params.SensorPayload, Created: created}
		q.pkts = append(q.pkts, p)
		q.bytes += p.Size
		a.bufferedBytes += p.Size
	}
}

func TestHopQueuesServedInAscendingOrder(t *testing.T) {
	t.Run("lowest qualifying next hop starts first", func(t *testing.T) {
		h := newHarness(t, harnessOpts{nodes: 3, burstPackets: 10})
		a := h.agents[0]
		// Queues created in descending next-hop order end up ascending.
		fillQueue(a, 2, 12, 200, 0)
		fillQueue(a, 1, 10, 100, 0)
		if len(a.buffers) != 2 || a.buffers[0].nh != 1 || a.buffers[1].nh != 2 {
			t.Fatalf("queues not in next-hop order: %+v", a.buffers)
		}
		a.maybeStart()
		if !a.sending || a.curTarget != 1 {
			t.Fatalf("handshake toward %d (sending %v), want next hop 1", a.curTarget, a.sending)
		}
		if want := 10 * params.SensorPayload; a.curBurstReq != want {
			t.Errorf("burst request %v, want %v (next hop 1's backlog)", a.curBurstReq, want)
		}
	})

	t.Run("deadline reroutes drain lower hops first", func(t *testing.T) {
		h := newHarness(t, harnessOpts{
			nodes:        3,
			burstPackets: 100,
			cfgMut: func(i int, c *Config) {
				c.DelayBound = 2 * time.Second
			},
		})
		h.sched.RunUntil(time.Minute)
		a := h.agents[0]
		headroom := a.sensor.Params().QueueCap - a.sensor.QueueLen() - 8
		perHop := headroom*2/3 + 1
		// Both backlogs are overdue, and together exceed the headroom.
		fillQueue(a, 2, perHop, 200, 0)
		fillQueue(a, 1, perHop, 100, 0)
		a.checkDeadlines()
		if got := a.Stats().SensorSends; got != uint64(headroom) {
			t.Fatalf("SensorSends = %d, want the headroom %d", got, headroom)
		}
		if got := a.bufferedFor(1); got != 0 {
			t.Errorf("next hop 1 kept %v, want it drained first", got)
		}
		kept := a.buffers[1].pkts
		if want := 2*perHop - headroom; len(kept) != want {
			t.Fatalf("next hop 2 kept %d packets, want %d", len(kept), want)
		}
		for i, p := range kept {
			if want := uint64(200 + perHop - len(kept) + i); p.Seq != want {
				t.Errorf("kept[%d].Seq = %d, want %d (the queue's tail)", i, p.Seq, want)
			}
		}
	})
}
