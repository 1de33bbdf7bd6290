package faultinject

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"nosuch.point",
		"cell.panic:count=-1",
		"cell.panic:p=1.5",
		"cell.panic:p=NaN",
		"cell.stall:delay=-5ms",
		"cell.panic:frequency=2",
		"cell.panic:p",
		"cell.panic;cell.panic",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestParseEmptyMeansOff(t *testing.T) {
	for _, spec := range []string{"", "  ", ";", " ; "} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p != nil {
			t.Errorf("Parse(%q) = non-nil plan", spec)
		}
	}
}

func TestInactiveHooksAreNoops(t *testing.T) {
	defer Activate(nil)()
	if Active() {
		t.Fatal("plan active without activation")
	}
	MaybePanic(CellPanic, "k") // must not panic
	if err := Error(CachePut, "k"); err != nil {
		t.Errorf("inactive Error = %v", err)
	}
	start := time.Now()
	Stall(context.Background(), CellStall, "k")
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("inactive Stall slept %v", d)
	}
}

func TestCountCapsFires(t *testing.T) {
	p, err := Parse("cache.put:count=2")
	if err != nil {
		t.Fatal(err)
	}
	defer Activate(p)()
	var fired int
	for i := 0; i < 5; i++ {
		if Error(CachePut, "key") != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("count=2 rule fired %d times", fired)
	}
	if got := Fired(CachePut); got != 2 {
		t.Errorf("Fired = %d, want 2", got)
	}
}

func TestProbabilityIsDeterministicPerKey(t *testing.T) {
	p, err := Parse("cell.panic:p=0.5,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	defer Activate(p)()
	first := make(map[string]bool)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, k := range keys {
		first[k] = Error(CellPanic, k) != nil
	}
	// Re-evaluating the same keys fires identically: the decision is a
	// pure function of (seed, point, key).
	for _, k := range keys {
		if again := Error(CellPanic, k) != nil; again != first[k] {
			t.Errorf("key %q: fire decision flipped %v -> %v", k, first[k], again)
		}
	}
	// With p=0.5 over 10 keys, both outcomes should occur.
	var hits int
	for _, f := range first {
		if f {
			hits++
		}
	}
	if hits == 0 || hits == len(first) {
		t.Errorf("p=0.5 fired on %d/%d keys; expected a mix", hits, len(first))
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	decide := func(seed string) string {
		p, err := Parse("cell.panic:p=0.5,seed=" + seed)
		if err != nil {
			t.Fatal(err)
		}
		defer Activate(p)()
		var b strings.Builder
		for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"} {
			if Error(CellPanic, k) != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	if decide("1") == decide("2") {
		t.Error("seeds 1 and 2 produced identical decision vectors")
	}
}

func TestMaybePanicPanics(t *testing.T) {
	p, err := Parse("cell.panic")
	if err != nil {
		t.Fatal(err)
	}
	defer Activate(p)()
	defer func() {
		if recover() == nil {
			t.Error("MaybePanic did not panic under an always-on rule")
		}
	}()
	MaybePanic(CellPanic, "key")
}

func TestStallHonorsContext(t *testing.T) {
	p, err := Parse("cell.stall:delay=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer Activate(p)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Stall(ctx, CellStall, "key")
	if d := time.Since(start); d > time.Second {
		t.Errorf("canceled Stall slept %v", d)
	}
}

func TestLoadEnv(t *testing.T) {
	t.Cleanup(func() { Activate(nil) })
	t.Setenv(EnvVar, "cache.put:count=1")
	spec, err := LoadEnv()
	if err != nil || spec == "" {
		t.Fatalf("LoadEnv = %q, %v", spec, err)
	}
	if !Active() {
		t.Fatal("LoadEnv did not activate the plan")
	}
	t.Setenv(EnvVar, "bogus")
	if _, err := LoadEnv(); err == nil {
		t.Error("LoadEnv accepted a bogus spec")
	}
	t.Setenv(EnvVar, "")
	if spec, err := LoadEnv(); err != nil || spec != "" {
		t.Errorf("empty env: LoadEnv = %q, %v", spec, err)
	}
	if Active() {
		t.Error("empty env left a plan active")
	}
}

// FuzzFaultPlan: Parse never panics, and every rule it accepts is one
// the hooks can evaluate: a probability in [0,1] (not NaN) and
// non-negative count and delay.
func FuzzFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil {
			return
		}
		for name, rs := range p.rules {
			if !points[name] || rs.Point != name {
				t.Errorf("Parse(%q): rule %q keyed under %q", spec, rs.Point, name)
			}
			if !(rs.Prob >= 0 && rs.Prob <= 1) {
				t.Errorf("Parse(%q): %s accepted p=%v", spec, name, rs.Prob)
			}
			if rs.Count < 0 || rs.Delay < 0 {
				t.Errorf("Parse(%q): %s accepted count=%d delay=%v", spec, name, rs.Count, rs.Delay)
			}
		}
	})
}
