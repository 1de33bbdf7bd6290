// Package units provides typed physical quantities used throughout the
// bulktx codebase: energy, power, bit rate, data size and distance.
//
// The simulator and the analytic models of the paper mix quantities with
// very different magnitudes (nanojoule-scale per-bit costs against
// joule-scale idling costs, 32 B sensor packets against multi-megabyte
// buffers). Dedicated types keep the arithmetic honest and the call sites
// self-documenting.
package units

import (
	"fmt"
	"time"
)

// Energy is an amount of energy in joules.
type Energy float64

// Common energy quantities.
const (
	Joule      Energy = 1
	Millijoule Energy = 1e-3
	Microjoule Energy = 1e-6
	Nanojoule  Energy = 1e-9
)

// Joules returns the energy as a float64 number of joules.
func (e Energy) Joules() float64 { return float64(e) }

// Millijoules returns the energy in millijoules.
func (e Energy) Millijoules() float64 { return float64(e) * 1e3 }

// Microjoules returns the energy in microjoules.
func (e Energy) Microjoules() float64 { return float64(e) * 1e6 }

// String formats the energy with an adaptive SI prefix.
func (e Energy) String() string {
	switch abs := absF(float64(e)); {
	case abs == 0:
		return "0 J"
	case abs < 1e-6:
		return fmt.Sprintf("%.3f nJ", float64(e)*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.3f µJ", float64(e)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3f mJ", float64(e)*1e3)
	default:
		return fmt.Sprintf("%.3f J", float64(e))
	}
}

// Power is a rate of energy use in watts.
type Power float64

// Common power quantities.
const (
	Watt      Power = 1
	Milliwatt Power = 1e-3
	Microwatt Power = 1e-6
)

// Watts returns the power as a float64 number of watts.
func (p Power) Watts() float64 { return float64(p) }

// Milliwatts returns the power in milliwatts.
func (p Power) Milliwatts() float64 { return float64(p) * 1e3 }

// String formats the power with an adaptive SI prefix.
func (p Power) String() string {
	switch abs := absF(float64(p)); {
	case abs == 0:
		return "0 W"
	case abs < 1e-3:
		return fmt.Sprintf("%.3f µW", float64(p)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3f mW", float64(p)*1e3)
	default:
		return fmt.Sprintf("%.3f W", float64(p))
	}
}

// Over returns the energy consumed by drawing power p for duration d.
func (p Power) Over(d time.Duration) Energy {
	if 0 <= d && d < time.Second {
		// d.Seconds() adds d's whole seconds (here 0) to its remainder
		// in nanoseconds over 1e9, so this is its value to the last bit,
		// without the integer divide and remainder.
		return Energy(float64(p) * (float64(d) / 1e9))
	}
	return Energy(float64(p) * d.Seconds())
}

// BitRate is a data rate in bits per second.
type BitRate float64

// Common bit rates.
const (
	BitPerSecond  BitRate = 1
	Kbps          BitRate = 1e3
	Mbps          BitRate = 1e6
	KilobitPerSec         = Kbps
	MegabitPerSec         = Mbps
)

// BitsPerSecond returns the rate as a float64 number of bits per second.
func (r BitRate) BitsPerSecond() float64 { return float64(r) }

// TimeFor returns the wall-clock time required to move size at rate r.
// A non-positive rate yields zero duration so callers need not special-case
// disabled radios; the radio layer validates rates at construction time.
func (r BitRate) TimeFor(size ByteSize) time.Duration {
	if r <= 0 {
		return 0
	}
	seconds := float64(size.Bits()) / float64(r)
	return time.Duration(seconds * float64(time.Second))
}

// String formats the rate with an adaptive prefix.
func (r BitRate) String() string {
	switch abs := absF(float64(r)); {
	case abs == 0:
		return "0 bps"
	case abs < 1e3:
		return fmt.Sprintf("%.0f bps", float64(r))
	case abs < 1e6:
		return fmt.Sprintf("%.1f Kbps", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.1f Mbps", float64(r)/1e6)
	}
}

// ByteSize is a quantity of data in bytes.
type ByteSize int64

// Common data sizes.
const (
	Byte     ByteSize = 1
	Kilobyte ByteSize = 1024
	Megabyte ByteSize = 1024 * 1024
)

// Bytes returns the size as an int64 byte count.
func (s ByteSize) Bytes() int64 { return int64(s) }

// Bits returns the size as a bit count.
func (s ByteSize) Bits() int64 { return int64(s) * 8 }

// Kilobytes returns the size in KiB as a float64.
func (s ByteSize) Kilobytes() float64 { return float64(s) / 1024 }

// String formats the size with an adaptive prefix.
func (s ByteSize) String() string {
	switch abs := s; {
	case abs < 0:
		return fmt.Sprintf("%d B", int64(s))
	case abs < Kilobyte:
		return fmt.Sprintf("%d B", int64(s))
	case abs < Megabyte:
		return fmt.Sprintf("%.2f KB", float64(s)/float64(Kilobyte))
	default:
		return fmt.Sprintf("%.2f MB", float64(s)/float64(Megabyte))
	}
}

// Meters is a distance in metres.
type Meters float64

// String formats the distance.
func (m Meters) String() string { return fmt.Sprintf("%.1f m", float64(m)) }

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
