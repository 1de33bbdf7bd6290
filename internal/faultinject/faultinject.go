// Package faultinject provides deterministic, opt-in fault injection
// for resilience tests and chaos smokes. Production code calls the
// cheap evaluation hooks (MaybePanic, Stall, Error) at named injection
// points; with no plan active — the default — every hook is a single
// atomic load and a nil check, so shipping the hooks costs nothing.
//
// A plan activates faults either programmatically (tests call Parse +
// Activate) or, for the real binaries, through the BULKTX_FAULTS
// environment variable (cmd/bcp-serve calls LoadEnv and logs loudly
// when a plan is active). The spec grammar is
//
//	point[:opt=val[,opt=val...]][;point...]
//
// with options p (fire probability, default 1), count (max fires,
// default unlimited), delay (stall duration) and seed (decision seed).
// Example: "cell.panic:count=2;cell.stall:delay=200ms,p=0.5,seed=7".
//
// Decisions are seed-driven and deterministic: whether a probabilistic
// rule fires for a given key is a pure function of (seed, point, key),
// so a fixed plan against a fixed workload injects the same faults on
// every run — flaky chaos is not chaos worth debugging.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Injection point names, one per failure mode the resilience layer
// defends against.
const (
	// CellPanic panics inside a sweep worker's cell execution, before
	// the simulation runs (exercises per-cell panic isolation and
	// quarantine).
	CellPanic = "cell.panic"
	// CellStall sleeps inside cell execution for the rule's delay
	// (exercises deadlines, cancellation and mid-sweep crashes).
	CellStall = "cell.stall"
	// CachePut fails the disk write of a sweep result-cache entry
	// (exercises mem-only fallback).
	CachePut = "cache.put"
	// JournalAppend fails a job-journal append (exercises the
	// availability-over-durability policy).
	JournalAppend = "journal.append"
)

// EnvVar is the environment variable LoadEnv reads a plan spec from.
const EnvVar = "BULKTX_FAULTS"

// points is the closed set of valid injection points; Parse rejects
// anything else so a typo in a chaos spec fails fast instead of
// silently injecting nothing.
var points = map[string]bool{
	CellPanic:     true,
	CellStall:     true,
	CachePut:      true,
	JournalAppend: true,
}

// Rule configures one injection point of a plan.
type Rule struct {
	// Point is the injection point name (CellPanic, ...).
	Point string
	// Prob is the fire probability per evaluation, decided
	// deterministically from Seed and the evaluation key (default 1).
	Prob float64
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
	// Delay is the stall duration of CellStall-style points.
	Delay time.Duration
	// Seed seeds the probabilistic fire decision.
	Seed int64
}

// ruleState is a rule plus its live fire counter.
type ruleState struct {
	Rule
	evals atomic.Int64 // fires so far (bounded by Count when set)
}

// Plan is a parsed set of injection rules, at most one per point.
type Plan struct {
	rules map[string]*ruleState
}

// active is the process-wide plan; nil means fault injection is off
// and every hook returns immediately.
var active atomic.Pointer[Plan]

// Parse compiles a plan spec (see the package comment for the
// grammar). An empty spec yields a nil plan, i.e. injection off.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{rules: make(map[string]*ruleState)}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, opts, _ := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		if !points[name] {
			return nil, fmt.Errorf("faultinject: unknown point %q (want one of %s)", name, knownPoints())
		}
		if _, dup := p.rules[name]; dup {
			return nil, fmt.Errorf("faultinject: duplicate rule for point %q", name)
		}
		rule := Rule{Point: name, Prob: 1}
		for _, opt := range strings.Split(opts, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			k, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: option %q of point %q is not key=value", opt, name)
			}
			var err error
			switch k {
			case "p":
				rule.Prob, err = strconv.ParseFloat(v, 64)
				// Written so NaN fails too: every comparison with NaN
				// is false, and fire would skip its Prob < 1 check.
				if err == nil && !(rule.Prob >= 0 && rule.Prob <= 1) {
					err = errors.New("probability outside [0,1]")
				}
			case "count":
				rule.Count, err = strconv.Atoi(v)
				if err == nil && rule.Count < 0 {
					err = errors.New("negative count")
				}
			case "delay":
				rule.Delay, err = time.ParseDuration(v)
				if err == nil && rule.Delay < 0 {
					err = errors.New("negative delay")
				}
			case "seed":
				rule.Seed, err = strconv.ParseInt(v, 10, 64)
			default:
				err = errors.New("unknown option")
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: point %q option %q: %v", name, opt, err)
			}
		}
		p.rules[name] = &ruleState{Rule: rule}
	}
	if len(p.rules) == 0 {
		return nil, nil
	}
	return p, nil
}

// knownPoints lists the valid point names for error messages.
func knownPoints() string {
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Activate installs the plan process-wide (nil deactivates injection)
// and returns a restore function that reinstates the previous plan —
// tests defer it so plans never leak across test cases.
func Activate(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// LoadEnv parses and activates the plan spec in BULKTX_FAULTS,
// returning the raw spec so callers can log that injection is active.
// An empty or unset variable deactivates injection and returns "".
func LoadEnv() (spec string, err error) {
	spec = os.Getenv(EnvVar)
	p, err := Parse(spec)
	if err != nil {
		return spec, err
	}
	if p == nil {
		spec = ""
	}
	Activate(p)
	return spec, nil
}

// Active reports whether any plan is installed.
func Active() bool { return active.Load() != nil }

// Fired reports how many times the point has fired under the active
// plan (0 when no plan or no rule) — test introspection.
func Fired(point string) int64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	rs, ok := p.rules[point]
	if !ok {
		return 0
	}
	n := rs.evals.Load()
	if rs.Count > 0 && n > int64(rs.Count) {
		return int64(rs.Count)
	}
	return n
}

// fire evaluates the point for key: it reports whether the rule fires
// and, if so, under which configuration. The decision is deterministic
// in (seed, point, key); the count cap is a live counter.
func fire(point, key string) (Rule, bool) {
	p := active.Load()
	if p == nil {
		return Rule{}, false
	}
	rs, ok := p.rules[point]
	if !ok {
		return Rule{}, false
	}
	if rs.Prob < 1 && hash01(rs.Seed, point, key) >= rs.Prob {
		return Rule{}, false
	}
	if n := rs.evals.Add(1); rs.Count > 0 && n > int64(rs.Count) {
		return Rule{}, false
	}
	return rs.Rule, true
}

// hash01 maps (seed, point, key) to a uniform-enough value in [0,1).
// The FNV digest goes through a splitmix64-style finalizer because raw
// FNV of short, similar strings clusters in the high bits.
func hash01(seed int64, point, key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, point, key)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// MaybePanic panics when the point fires for key — the injected
// failure the sweep workers' recover path turns into a per-cell error.
func MaybePanic(point, key string) {
	if _, ok := fire(point, key); ok {
		panic(fmt.Sprintf("faultinject: %s (key %.16s)", point, key))
	}
}

// Stall sleeps the rule's delay when the point fires for key,
// returning early if ctx ends first.
func Stall(ctx context.Context, point, key string) {
	rule, ok := fire(point, key)
	if !ok || rule.Delay <= 0 {
		return
	}
	t := time.NewTimer(rule.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Error returns an injected error when the point fires for key, nil
// otherwise — spliced into disk-write paths (cache, journal) ahead of
// the real I/O.
func Error(point, key string) error {
	if _, ok := fire(point, key); ok {
		return fmt.Errorf("faultinject: injected %s failure (key %.16s)", point, key)
	}
	return nil
}
