package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPowerOver(t *testing.T) {
	tests := []struct {
		name string
		p    Power
		d    time.Duration
		want Energy
	}{
		{"one watt one second", 1 * Watt, time.Second, 1 * Joule},
		{"milliwatt second", 50 * Milliwatt, time.Second, 50 * Millijoule},
		{"watt millisecond", 2 * Watt, time.Millisecond, 2 * Millijoule},
		{"zero power", 0, time.Hour, 0},
		{"zero duration", 5 * Watt, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.p.Over(tt.d)
			if math.Abs(got.Joules()-tt.want.Joules()) > 1e-12 {
				t.Errorf("Over() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBitRateTimeFor(t *testing.T) {
	tests := []struct {
		name string
		r    BitRate
		s    ByteSize
		want time.Duration
	}{
		{"1Mbps 1KB", 1 * Mbps, 1024 * Byte, time.Duration(8192 * float64(time.Second) / 1e6)},
		{"250Kbps 32B", 250 * Kbps, 32 * Byte, time.Duration(256 * float64(time.Second) / 250e3)},
		{"zero rate", 0, 100 * Byte, 0},
		{"negative rate", -5, 100 * Byte, 0},
		{"zero size", 11 * Mbps, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.r.TimeFor(tt.s)
			if diff := got - tt.want; diff < -time.Nanosecond || diff > time.Nanosecond {
				t.Errorf("TimeFor() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestByteSizeBits(t *testing.T) {
	if got := (1 * Kilobyte).Bits(); got != 8192 {
		t.Errorf("Kilobyte.Bits() = %d, want 8192", got)
	}
	if got := (32 * Byte).Bits(); got != 256 {
		t.Errorf("32B.Bits() = %d, want 256", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	e := 1500 * Microjoule
	if math.Abs(e.Millijoules()-1.5) > 1e-9 {
		t.Errorf("Millijoules() = %v, want 1.5", e.Millijoules())
	}
	if math.Abs(e.Microjoules()-1500) > 1e-6 {
		t.Errorf("Microjoules() = %v, want 1500", e.Microjoules())
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{(1.5 * Joule).String(), "1.500 J"},
		{(2 * Millijoule).String(), "2.000 mJ"},
		{(3 * Microjoule).String(), "3.000 µJ"},
		{Energy(0).String(), "0 J"},
		{(250 * Kbps).String(), "250.0 Kbps"},
		{(11 * Mbps).String(), "11.0 Mbps"},
		{BitRate(12).String(), "12 bps"},
		{(32 * Byte).String(), "32 B"},
		{(4 * Kilobyte).String(), "4.00 KB"},
		{(3 * Megabyte).String(), "3.00 MB"},
		{(830 * Milliwatt).String(), "830.000 mW"},
		{(1.4 * Watt).String(), "1.400 W"},
		{Meters(40).String(), "40.0 m"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

// Property: energy accumulated over two consecutive durations equals the
// energy over their sum (additivity of the power integral).
func TestPowerOverAdditive(t *testing.T) {
	f := func(milliwatts uint16, ms1, ms2 uint16) bool {
		p := Power(milliwatts) * Milliwatt
		d1 := time.Duration(ms1) * time.Millisecond
		d2 := time.Duration(ms2) * time.Millisecond
		split := p.Over(d1) + p.Over(d2)
		whole := p.Over(d1 + d2)
		return math.Abs(split.Joules()-whole.Joules()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Over's sub-second fast path gives the bits of the plain
// float64(p) * d.Seconds(), on both sides of one second, at the
// boundary and for negative durations.
func TestPowerOverMatchesSeconds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(p Power, d time.Duration) {
		t.Helper()
		got, want := p.Over(d), Energy(float64(p)*d.Seconds())
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("Power(%v).Over(%d ns) = %v, want %v", float64(p), int64(d), float64(got), float64(want))
		}
	}
	for _, d := range []time.Duration{0, 1, time.Second - 1, time.Second, time.Second + 1, -1, -time.Second} {
		check(1.5*Watt, d)
	}
	for range 100000 {
		p := Power(rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(9)-6)))
		var d time.Duration
		switch rng.Intn(4) {
		case 0: // below one second
			d = time.Duration(rng.Int63n(int64(time.Second)))
		case 1: // one second to an hour
			d = time.Second + time.Duration(rng.Int63n(int64(time.Hour)))
		case 2: // anywhere
			d = time.Duration(rng.Int63())
		default: // negative
			d = -time.Duration(rng.Int63n(int64(time.Hour)))
		}
		check(p, d)
	}
}

// Property: transmission time scales linearly with data size.
func TestTimeForLinear(t *testing.T) {
	f := func(kb uint8) bool {
		r := 2 * Mbps
		s := ByteSize(kb) * Kilobyte
		double := r.TimeFor(2 * s)
		single := r.TimeFor(s)
		diff := double - 2*single
		return diff > -time.Microsecond && diff < time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a faster rate never takes longer for the same payload.
func TestTimeForMonotoneInRate(t *testing.T) {
	f := func(kb uint8, kbpsA, kbpsB uint16) bool {
		if kbpsA == 0 || kbpsB == 0 {
			return true
		}
		lo, hi := BitRate(kbpsA)*Kbps, BitRate(kbpsB)*Kbps
		if lo > hi {
			lo, hi = hi, lo
		}
		s := ByteSize(kb) * Kilobyte
		return hi.TimeFor(s) <= lo.TimeFor(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
