package netsim

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// churnEvent is one scheduled availability change: at offset at into
// the run, node crashes (down) or recovers. A crashed node's radios
// neither hear nor transmit until recovery; its application keeps
// generating (and losing) traffic, which is the observable cost of
// churn.
type churnEvent struct {
	at   time.Duration
	node int
	down bool
}

// churnSeedSalt decorrelates the churn schedule's PRNG stream from the
// scheduler's, which is seeded with the run seed directly.
const churnSeedSalt = 0x5EED_C4A5

// churnSchedule draws the random churn that ChurnRate describes for a
// layout of nodes nodes (nil when ChurnRate is zero): every non-sink
// node fails independently with exponentially distributed uptimes
// (ChurnRate expected failures per simulated hour) and downtimes
// (mean ChurnMeanDowntime, default 60 s) over [0, Duration]. The
// schedule varies per seeded repetition like any other noise process,
// but from a decorrelated stream: seeding it with the run seed
// verbatim would replay the exact PRNG sequence that drives channel
// loss, backoff and arrivals.
func (c Config) churnSchedule(nodes, sink int) []churnEvent {
	if c.ChurnRate <= 0 {
		return nil
	}
	meanDown := c.ChurnMeanDowntime
	if meanDown == 0 {
		meanDown = time.Minute
	}
	// A mean uptime past the largest Duration (churn rates below about
	// 4e-7 per hour) stays a float, and so does every draw until it is
	// known to end within the run: a converted draw cannot wrap around
	// to a negative time.
	meanUp := float64(time.Hour) / c.ChurnRate
	if meanUp < math.MaxInt64 {
		meanUp = math.Trunc(meanUp)
	}
	rng := rand.New(rand.NewSource(c.Seed ^ churnSeedSalt))
	// next draws an exponential interval of the given mean after at,
	// and reports false when it ends past the run.
	next := func(at time.Duration, mean float64) (time.Duration, bool) {
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		x := -math.Log(u) * mean
		if x >= math.MaxInt64 || time.Duration(x) > c.Duration-at {
			return 0, false
		}
		return at + time.Duration(x), true
	}
	var out []churnEvent
	for node := 0; node < nodes; node++ {
		if node == sink {
			continue
		}
		for at, ok := next(0, meanUp); ok; at, ok = next(at, meanUp) {
			out = append(out, churnEvent{at: at, node: node, down: true})
			if at, ok = next(at, float64(meanDown)); !ok {
				break
			}
			out = append(out, churnEvent{at: at, node: node, down: false})
		}
	}
	// Order by time, then node, then recovery first: a total order, so
	// equal-time events always schedule the same way.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return !a.down && b.down
	})
	return out
}
