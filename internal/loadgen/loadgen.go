// Package loadgen drives a live bcp-serve the way real clients would:
// composable, seed-deterministic sequences of randomized client
// behaviors — mixed single runs, overlapping sweep grids that exercise
// content-keyed job dedupe and the result cache, SSE subscribers that
// connect late or disconnect rudely mid-stream, job cancellations
// mid-sweep, and 429 storms against the bounded queue that honor (and
// record) the adaptive Retry-After hint.
//
// The generator is deterministic by construction: BuildSchedule lowers
// (seed, profile) into an explicit ordered op list before a single
// request is sent, so two invocations with the same seed issue the
// identical request schedule, and the report's Counters section —
// requests, dedupe hits, 429 rejections, SSE replays — matches across
// runs against the same server. The only wall-clock observations are
// the storm's Retry-After hints, reported separately in the Observed
// section and never gated.
//
// The deterministic-backpressure trick: the storm first submits
// Profile.JobWorkers "plug" sweeps and waits (via SSE) until every
// executor has started one, then fills the queue with exactly
// Profile.QueueLimit submissions and sends Profile.StormExtras more —
// which must all bounce with 429 because nothing can drain while the
// plugs hold every executor. Everything is then canceled (fills first,
// while they are still safely queued), the advertised Retry-After is
// honored, and a probe submission verifies the queue reopened. This
// requires the target server to run with matching -queue and
// -job-workers values; see docs/OPERATIONS.md.
//
// Results land in BENCH_SERVE.json (see Report), and CompareReports
// gates behavior only: the run must be clean and its seed, schedule
// hash and counters must match the committed baseline exactly. Service
// throughput and latency are measured by the perfbench serve-mixed
// workload and the service's bulktx_http_request_duration_seconds
// histogram, not here.
package loadgen

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"
)

// Profile scales the generated schedule. The zero value is invalid;
// start from ShortProfile or SoakProfile and override fields.
type Profile struct {
	// Name labels the profile in the report ("short", "soak").
	Name string `json:"name"`
	// Singles is the number of single-run submissions in the mixed
	// phase, each with randomized model/senders and a unique seed.
	Singles int `json:"singles"`
	// SweepPairs is the number of overlapping sweep-grid pairs in the
	// mixed phase: each pair shares grid cells, exercising the pool's
	// result cache.
	SweepPairs int `json:"sweep_pairs"`
	// Resubmits is how many duplicate submissions each pair's first
	// grid receives, exercising content-keyed job dedupe.
	Resubmits int `json:"resubmits"`
	// RudeSubs is the number of SSE subscribers that attach to the
	// running cancel-target job and disconnect rudely after one event.
	RudeSubs int `json:"rude_subs"`
	// LateReplays is the number of post-completion SSE connections that
	// must replay the full event history of an already-finished job.
	LateReplays int `json:"late_replays"`
	// StormExtras is the number of storm submissions past the queue
	// limit; every one must be rejected with 429.
	StormExtras int `json:"storm_extras"`
	// QueueLimit must equal the target server's -queue flag: the storm
	// fills exactly this many queue slots before expecting 429s, and
	// the mixed phase keeps at most this many submissions outstanding.
	QueueLimit int `json:"queue_limit"`
	// JobWorkers must equal the target server's -job-workers flag: the
	// storm submits this many plug sweeps to occupy every executor.
	JobWorkers int `json:"job_workers"`
	// RunDurationS is the simulated duration of mixed-phase cells.
	RunDurationS float64 `json:"run_duration_s"`
	// PlugRuns is the seeded repetitions per storm-plug grid; each plug
	// compiles to 2*PlugRuns cells, sized so a plug cannot finish
	// before the storm completes even when an earlier invocation
	// against the same server already cached some of its cells. The
	// sizing guarantees two consecutive invocations (the determinism
	// check); after many repeats the cache eventually swallows the
	// plugs, so run the -compare gate against a freshly started server
	// (scripts/loadgen-smoke.sh does).
	PlugRuns int `json:"plug_runs"`
	// PlugDurationS is the simulated duration of plug and cancel-target
	// cells — the wall-clock knob that keeps executors busy.
	PlugDurationS float64 `json:"plug_duration_s"`
	// RetryAfterCapS caps the honored post-storm Retry-After sleep, so
	// a short CI profile cannot be stalled by a large advertised hint.
	RetryAfterCapS float64 `json:"retry_after_cap_s"`
}

// ShortProfile is the CI profile: a few seconds of load, small enough
// to gate every merge. The server shape it assumes is -queue 4
// -job-workers 2.
func ShortProfile() Profile {
	return Profile{
		Name:           "short",
		Singles:        4,
		SweepPairs:     1,
		Resubmits:      3,
		RudeSubs:       2,
		LateReplays:    3,
		StormExtras:    5,
		QueueLimit:     4,
		JobWorkers:     2,
		RunDurationS:   30,
		PlugRuns:       10,
		PlugDurationS:  480,
		RetryAfterCapS: 2,
	}
}

// SoakProfile is the longer workflow_dispatch profile: the same
// behaviors at several times the volume, for catching regressions that
// only show under sustained traffic.
func SoakProfile() Profile {
	return Profile{
		Name:           "soak",
		Singles:        24,
		SweepPairs:     4,
		Resubmits:      8,
		RudeSubs:       6,
		LateReplays:    12,
		StormExtras:    20,
		QueueLimit:     4,
		JobWorkers:     2,
		RunDurationS:   60,
		PlugRuns:       16,
		PlugDurationS:  480,
		RetryAfterCapS: 5,
	}
}

// ProfileByName resolves a profile flag value ("short", "soak").
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "short":
		return ShortProfile(), nil
	case "soak":
		return SoakProfile(), nil
	default:
		return Profile{}, fmt.Errorf("unknown profile %q (want short or soak)", name)
	}
}

// Validate rejects profiles that cannot produce a deterministic
// schedule.
func (p Profile) Validate() error {
	switch {
	case p.Singles < 0 || p.SweepPairs < 0 || p.Resubmits < 0 ||
		p.RudeSubs < 0 || p.LateReplays < 0 || p.StormExtras < 0:
		return fmt.Errorf("loadgen: profile counts must be >= 0")
	case p.Singles+p.SweepPairs == 0:
		return fmt.Errorf("loadgen: profile needs at least one single or sweep pair")
	case p.QueueLimit < 2:
		return fmt.Errorf("loadgen: queue_limit %d: must be >= 2 (a sweep pair needs two slots)", p.QueueLimit)
	case p.JobWorkers < 1:
		return fmt.Errorf("loadgen: job_workers %d: must be >= 1", p.JobWorkers)
	case p.RunDurationS <= 0 || p.PlugDurationS <= 0:
		return fmt.Errorf("loadgen: durations must be > 0")
	case p.PlugRuns < 2:
		return fmt.Errorf("loadgen: plug_runs %d: must be >= 2 (plugs must outlast the storm)", p.PlugRuns)
	case p.RetryAfterCapS < 0:
		return fmt.Errorf("loadgen: retry_after_cap_s must be >= 0")
	}
	return nil
}

// Options configures one load-generation run.
type Options struct {
	// BaseURL is the target bcp-serve address, e.g. http://127.0.0.1:8080.
	BaseURL string
	// Seed drives every randomized choice; the same seed yields the
	// identical request schedule.
	Seed int64
	// Profile scales the schedule; see ShortProfile and SoakProfile.
	Profile Profile
	// Client issues the HTTP requests; nil selects a fresh client with
	// no global timeout (SSE awaits are bounded by WaitTimeout
	// instead). Tests inject a client whose transport serves an
	// in-process handler.
	Client *http.Client
	// Log receives progress lines; nil discards them.
	Log *slog.Logger
	// WaitTimeout bounds each SSE wait (job completion, started
	// events); zero selects 2 minutes. A hit means the server shape
	// does not match the profile (see Profile.QueueLimit) and fails
	// the run.
	WaitTimeout time.Duration
	// Sleep performs the honored Retry-After wait; nil selects
	// time.Sleep. Tests stub it to keep the suite fast.
	Sleep func(time.Duration)
}
