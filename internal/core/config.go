package core

import (
	"fmt"
	"math"
	"time"

	"bulktx/internal/params"
	"bulktx/internal/units"
)

// Config parameterizes one node's BCP agent.
type Config struct {
	// NodeID is this node's index, its address on both radios.
	NodeID int

	// BurstThreshold is alpha-s*: the buffered amount per next hop that
	// triggers the wake-up handshake.
	BurstThreshold units.ByteSize

	// BufferCap bounds the node's total data buffer (the paper uses
	// 5000 x 32 B). Packets arriving beyond it are dropped.
	BufferCap units.ByteSize

	// SensorPayload and SensorHeader describe low-power packetization.
	SensorPayload, SensorHeader units.ByteSize

	// WifiPayload and WifiHeader describe high-power packetization.
	WifiPayload, WifiHeader units.ByteSize

	// ControlPayload sizes wake-up and ack messages.
	ControlPayload units.ByteSize

	// AckTimeout bounds the wait for a wake-up ack before resending the
	// wake-up message.
	AckTimeout time.Duration

	// MaxWakeupRetries bounds wake-up resends before abandoning the
	// handshake attempt.
	MaxWakeupRetries int

	// RetryBackoff is the pause after an abandoned handshake before the
	// agent re-examines its buffers.
	RetryBackoff time.Duration

	// ReceiverIdleTimeout bounds receiver-side high-power idling between
	// burst frames ("To avoid waiting for the sender data indefinitely,
	// the receiver times out and turns its high-power radio off").
	ReceiverIdleTimeout time.Duration

	// PostBurstLinger keeps the sender radio on after its last frame,
	// modelling imperfect shutdown (Figure 4's "idle" scenario). Zero
	// turns the radio off immediately.
	PostBurstLinger time.Duration

	// MinGrant optionally implements the paper's unevaluated extension:
	// "If this data size is less than s*, the sender might give up
	// sending." When positive, grants below MinGrant abort the attempt.
	MinGrant units.ByteSize

	// ThresholdAlpha, when positive, enables the paper's stated future
	// work: after each burst the threshold is recomputed as
	// ThresholdAlpha times the break-even size solved with the *observed*
	// retransmission factors of both links. Zero keeps the static
	// threshold.
	ThresholdAlpha float64

	// DelayBound enables the paper's second stated future work: packets
	// that would exceed this age waiting for the threshold are sent
	// immediately over the low-power radio instead. Zero disables.
	DelayBound time.Duration
}

// DefaultConfig returns the evaluation defaults of Section 4.1 for a
// given node and burst threshold (in sensor packets).
func DefaultConfig(nodeID, burstPackets int) Config {
	return Config{
		NodeID:              nodeID,
		BurstThreshold:      units.ByteSize(burstPackets) * params.SensorPayload,
		BufferCap:           params.BufferPackets * params.SensorPayload,
		SensorPayload:       params.SensorPayload,
		SensorHeader:        params.SensorHeader,
		WifiPayload:         params.WifiPayload,
		WifiHeader:          params.WifiHeader,
		ControlPayload:      params.ControlPayload,
		AckTimeout:          params.SenderAckTimeout,
		MaxWakeupRetries:    params.WakeupMaxRetries,
		RetryBackoff:        time.Second,
		ReceiverIdleTimeout: params.ReceiverIdleTimeout,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NodeID < 0:
		return fmt.Errorf("core: negative node id %d", c.NodeID)
	case c.BurstThreshold <= 0:
		return fmt.Errorf("core: burst threshold %v must be positive", c.BurstThreshold)
	case c.BufferCap < c.BurstThreshold:
		return fmt.Errorf("core: buffer cap %v below burst threshold %v",
			c.BufferCap, c.BurstThreshold)
	case c.SensorPayload <= 0 || c.WifiPayload <= 0:
		return fmt.Errorf("core: non-positive payload sizes")
	case c.SensorHeader < 0 || c.WifiHeader < 0 || c.ControlPayload < 0:
		return fmt.Errorf("core: negative header/control sizes")
	case c.AckTimeout <= 0:
		return fmt.Errorf("core: ack timeout must be positive")
	case c.MaxWakeupRetries < 0:
		return fmt.Errorf("core: negative wakeup retries")
	case c.RetryBackoff < 0:
		return fmt.Errorf("core: negative retry backoff")
	case c.ReceiverIdleTimeout <= 0:
		return fmt.Errorf("core: receiver idle timeout must be positive")
	case c.PostBurstLinger < 0:
		return fmt.Errorf("core: negative post-burst linger")
	case c.MinGrant < 0:
		return fmt.Errorf("core: negative minimum grant")
	case !(c.ThresholdAlpha >= 0) || math.IsInf(c.ThresholdAlpha, 1):
		return fmt.Errorf("core: adaptive alpha %v must be finite and non-negative", c.ThresholdAlpha)
	case c.DelayBound < 0:
		return fmt.Errorf("core: negative delay bound")
	}
	return nil
}

// Stats counts protocol events at one agent.
type Stats struct {
	// PacketsBuffered counts packets accepted into the buffer.
	PacketsBuffered uint64
	// PacketsDropped counts packets rejected by a full buffer.
	PacketsDropped uint64
	// PacketsDelivered counts packets delivered locally (this node was
	// the destination).
	PacketsDelivered uint64
	// PacketsForwarded counts packets re-buffered toward the next hop.
	PacketsForwarded uint64
	// PacketsLost counts packets abandoned when the high-power MAC gave
	// up on their frame.
	PacketsLost uint64

	// Handshakes counts wake-up handshakes started.
	Handshakes uint64
	// HandshakeFailures counts handshakes abandoned after retries.
	HandshakeFailures uint64
	// WakeupResends counts wake-up message retransmissions.
	WakeupResends uint64
	// GrantsDenied counts wake-ups ignored for lack of buffer space.
	GrantsDenied uint64
	// GrantsReduced counts acks granting less than requested.
	GrantsReduced uint64
	// GrantsDeclined counts sender-side aborts under MinGrant.
	GrantsDeclined uint64

	// BurstsSent counts completed sender bursts.
	BurstsSent uint64
	// BurstsReceived counts completed receiver bursts.
	BurstsReceived uint64
	// FramesSent and FramesLost count high-power frames handed to and
	// abandoned by the MAC.
	FramesSent, FramesLost uint64
	// ReceiverTimeouts counts receiver idle-timer expiries.
	ReceiverTimeouts uint64

	// ThresholdAdaptations counts adaptive-threshold updates.
	ThresholdAdaptations uint64
	// SensorSends counts packets rerouted over the low-power radio by
	// the delay bound.
	SensorSends uint64
	// SensorForwards counts low-power data packets relayed for others.
	SensorForwards uint64
}
