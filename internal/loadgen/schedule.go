package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
)

// OpKind names one client behavior in the schedule.
type OpKind string

// The schedule's op vocabulary.
const (
	// OpSubmit POSTs Body to Path and expects the Want status class.
	OpSubmit OpKind = "submit"
	// OpResubmit re-POSTs the Ref submission's body and expects a
	// dedupe answer carrying the Ref job's id.
	OpResubmit OpKind = "resubmit"
	// OpAwait subscribes to the Ref job's SSE stream until the
	// WantTerminal event, validating the replayed history.
	OpAwait OpKind = "await"
	// OpAwaitStarted subscribes to the Ref job's SSE stream until the
	// "started" event, then disconnects rudely.
	OpAwaitStarted OpKind = "await-started"
	// OpReplay subscribes to an already-terminal Ref job and validates
	// that the full event history replays from id 1.
	OpReplay OpKind = "replay"
	// OpRude subscribes to the Ref job's SSE stream, reads one event,
	// and disconnects rudely mid-stream.
	OpRude OpKind = "rude"
	// OpStatus GETs the Ref job's status, recording execution timings
	// and cache counters.
	OpStatus OpKind = "status"
	// OpCancel DELETEs the Ref job and expects 202.
	OpCancel OpKind = "cancel"
	// OpHonorRetryAfter sleeps the largest Retry-After observed so far
	// (capped by Profile.RetryAfterCapS), honoring the server's
	// backpressure hint before the post-storm probe.
	OpHonorRetryAfter OpKind = "honor-retry-after"
)

// Op is one scheduled client action. The schedule — the ordered op
// list — is a pure function of (seed, profile): it is fully
// materialized, hashable and printable before the first request.
type Op struct {
	// Kind selects the behavior.
	Kind OpKind `json:"kind"`
	// Phase labels the op for progress logs: mixed, cancel, storm.
	Phase string `json:"phase"`
	// Ref is the submission index (in submit-op order) the op targets;
	// meaningful for every kind except submit and honor-retry-after.
	Ref int `json:"ref,omitempty"`
	// Path is the submit route: /v1/runs or /v1/sweeps.
	Path string `json:"path,omitempty"`
	// Body is the submit request body.
	Body json.RawMessage `json:"body,omitempty"`
	// Want is the expected submit status (202 accepted-or-deduped, 429
	// rejected); zero means accepted.
	Want int `json:"want,omitempty"`
	// WantTerminal is the expected terminal SSE event of an await op:
	// "done" or "canceled".
	WantTerminal string `json:"want_terminal,omitempty"`
}

// runBody mirrors the service's RunRequest fields the generator uses.
type runBody struct {
	// Model, Senders, DurationS, RateBps and Seed mirror the
	// like-named POST /v1/runs fields.
	Model     string  `json:"model"`
	Senders   int     `json:"senders"`
	DurationS float64 `json:"duration_s"`
	RateBps   float64 `json:"rate_bps"`
	Seed      int64   `json:"seed"`
}

// sweepBody mirrors the sweep.SpecDoc fields the generator uses.
type sweepBody struct {
	// Models, Senders, Bursts, Runs, DurationS, RateBps and Seed
	// mirror the like-named POST /v1/sweeps fields.
	Models    []string `json:"models"`
	Senders   []int    `json:"senders"`
	Bursts    []int    `json:"bursts"`
	Runs      int      `json:"runs"`
	DurationS float64  `json:"duration_s"`
	RateBps   float64  `json:"rate_bps"`
	Seed      int64    `json:"seed"`
}

// loadRate is the per-sender application rate of every generated
// scenario: low enough that even the largest generated cell simulates
// in well under a second.
const loadRate = 2000

// mustJSON marshals a generator-owned struct; a failure is a
// programming error.
func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("loadgen: marshal schedule body: %v", err))
	}
	return data
}

// scheduleBuilder accumulates ops and tracks submission indexes.
type scheduleBuilder struct {
	ops     []Op
	submits int
}

// submit appends a submit op and returns its submission index.
func (b *scheduleBuilder) submit(phase, path string, body json.RawMessage, want int) int {
	ref := b.submits
	b.submits++
	b.ops = append(b.ops, Op{Kind: OpSubmit, Phase: phase, Ref: ref, Path: path, Body: body, Want: want})
	return ref
}

// add appends a non-submit op.
func (b *scheduleBuilder) add(op Op) { b.ops = append(b.ops, op) }

// mixedItem is one shuffled unit of the mixed phase: a single run or
// an overlapping sweep pair.
type mixedItem struct {
	pair bool
}

// BuildSchedule lowers (seed, profile) into the full ordered op list.
// It is the determinism boundary: every randomized choice — scenario
// parameters, per-submission seeds, phase interleaving — draws from
// one rand.Rand seeded here, so equal inputs produce byte-identical
// schedules (see ScheduleSHA256).
func BuildSchedule(seed int64, p Profile) ([]Op, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := &scheduleBuilder{}

	// Mixed phase: singles and overlapping sweep pairs, shuffled, with
	// at most QueueLimit submissions outstanding so the queue can never
	// reject mixed traffic even if no executor drains it.
	items := make([]mixedItem, 0, p.Singles+p.SweepPairs)
	for i := 0; i < p.Singles; i++ {
		items = append(items, mixedItem{})
	}
	for i := 0; i < p.SweepPairs; i++ {
		items = append(items, mixedItem{pair: true})
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	models := []string{"sensor", "dual"}
	senderChoices := []int{5, 10, 15}
	var outstanding []int // refs awaiting completion in the current batch
	var mixedRefs []int   // every mixed submission that completes as done
	flush := func() {
		for _, ref := range outstanding {
			b.add(Op{Kind: OpAwait, Phase: "mixed", Ref: ref, WantTerminal: "done"})
			b.add(Op{Kind: OpStatus, Phase: "mixed", Ref: ref})
		}
		outstanding = outstanding[:0]
	}
	for _, it := range items {
		slots := 1
		if it.pair {
			slots = 2
		}
		if len(outstanding)+slots > p.QueueLimit {
			flush()
		}
		if !it.pair {
			body := mustJSON(runBody{
				Model:     models[rng.Intn(len(models))],
				Senders:   senderChoices[rng.Intn(len(senderChoices))],
				DurationS: p.RunDurationS,
				RateBps:   loadRate,
				Seed:      rng.Int63n(1 << 40),
			})
			ref := b.submit("mixed", "/v1/runs", body, 0)
			outstanding = append(outstanding, ref)
			mixedRefs = append(mixedRefs, ref)
			continue
		}
		// An overlapping pair: grid G over senders {a,b}, grid Gov over
		// {b,c} with the same seed and scenario, so the b-cells are
		// identical configurations: the later job reads them from the
		// result cache when the earlier one has finished them, and
		// simulates them again when the two jobs overlap.
		perm := rng.Perm(len(senderChoices))
		a, bb, c := senderChoices[perm[0]], senderChoices[perm[1]], senderChoices[perm[2]]
		pairSeed := rng.Int63n(1 << 40)
		g := mustJSON(sweepBody{
			Models: []string{"sensor"}, Senders: []int{a, bb}, Bursts: []int{10},
			Runs: 2, DurationS: p.RunDurationS, RateBps: loadRate, Seed: pairSeed,
		})
		gov := mustJSON(sweepBody{
			Models: []string{"sensor"}, Senders: []int{bb, c}, Bursts: []int{10},
			Runs: 2, DurationS: p.RunDurationS, RateBps: loadRate, Seed: pairSeed,
		})
		gRef := b.submit("mixed", "/v1/sweeps", g, 0)
		govRef := b.submit("mixed", "/v1/sweeps", gov, 0)
		for r := 0; r < p.Resubmits; r++ {
			b.add(Op{Kind: OpResubmit, Phase: "mixed", Ref: gRef})
		}
		outstanding = append(outstanding, gRef, govRef)
		mixedRefs = append(mixedRefs, gRef, govRef)
	}
	flush()

	// Late subscribers: full-history replays of jobs that already
	// finished, validating the append-only SSE history contract.
	for i := 0; i < p.LateReplays; i++ {
		b.add(Op{Kind: OpReplay, Phase: "mixed", Ref: mixedRefs[rng.Intn(len(mixedRefs))], WantTerminal: "done"})
	}

	// Cancel phase: a moderately large sweep, rude mid-stream
	// disconnects while it runs, then a mid-sweep DELETE.
	// The target is sized like a storm plug (2*PlugRuns cells): a
	// canceled job's in-flight cells still finish and land in the
	// result cache, so the next invocation's resubmission starts with a
	// head start — the cell count must dwarf what one cancel window can
	// cache or run 2's DELETE races the job's completion.
	ct := b.submit("cancel", "/v1/sweeps", mustJSON(sweepBody{
		Models: []string{"sensor"}, Senders: []int{5, 10}, Bursts: []int{10},
		Runs: p.PlugRuns, DurationS: p.PlugDurationS, RateBps: loadRate, Seed: rng.Int63n(1 << 40),
	}), 0)
	b.add(Op{Kind: OpAwaitStarted, Phase: "cancel", Ref: ct})
	for i := 0; i < p.RudeSubs; i++ {
		b.add(Op{Kind: OpRude, Phase: "cancel", Ref: ct})
	}
	b.add(Op{Kind: OpCancel, Phase: "cancel", Ref: ct})
	b.add(Op{Kind: OpAwait, Phase: "cancel", Ref: ct, WantTerminal: "canceled"})

	// Storm phase: plug every executor, fill the queue exactly, then
	// overflow it — each overflow submission must bounce with 429.
	plugs := make([]int, p.JobWorkers)
	for i := range plugs {
		plugs[i] = b.submit("storm", "/v1/sweeps", mustJSON(sweepBody{
			Models: []string{"sensor"}, Senders: []int{5, 10}, Bursts: []int{10},
			Runs: p.PlugRuns, DurationS: p.PlugDurationS, RateBps: loadRate, Seed: rng.Int63n(1 << 40),
		}), 0)
	}
	for _, ref := range plugs {
		b.add(Op{Kind: OpAwaitStarted, Phase: "storm", Ref: ref})
	}
	fills := make([]int, p.QueueLimit)
	for i := range fills {
		fills[i] = b.submit("storm", "/v1/runs", mustJSON(runBody{
			Model: "sensor", Senders: 5, DurationS: 10, RateBps: loadRate, Seed: rng.Int63n(1 << 40),
		}), 0)
	}
	for i := 0; i < p.StormExtras; i++ {
		b.submit("storm", "/v1/runs", mustJSON(runBody{
			Model: "sensor", Senders: 5, DurationS: 10, RateBps: loadRate, Seed: rng.Int63n(1 << 40),
		}), 429)
	}
	// Tear down fills first: the plugs still hold every executor, so
	// the fills are deterministically still queued when DELETEd.
	for _, ref := range fills {
		b.add(Op{Kind: OpCancel, Phase: "storm", Ref: ref})
	}
	for _, ref := range plugs {
		b.add(Op{Kind: OpCancel, Phase: "storm", Ref: ref})
	}
	for _, ref := range fills {
		b.add(Op{Kind: OpAwait, Phase: "storm", Ref: ref, WantTerminal: "canceled"})
	}
	for _, ref := range plugs {
		b.add(Op{Kind: OpAwait, Phase: "storm", Ref: ref, WantTerminal: "canceled"})
	}
	// Honor the advertised backoff, then verify the queue reopened.
	b.add(Op{Kind: OpHonorRetryAfter, Phase: "storm"})
	probe := b.submit("storm", "/v1/runs", mustJSON(runBody{
		Model: "sensor", Senders: 5, DurationS: 10, RateBps: loadRate, Seed: rng.Int63n(1 << 40),
	}), 0)
	b.add(Op{Kind: OpAwait, Phase: "storm", Ref: probe, WantTerminal: "done"})
	b.add(Op{Kind: OpStatus, Phase: "storm", Ref: probe})
	return b.ops, nil
}

// ScheduleSHA256 hashes the marshaled schedule — the report pins it so
// a baseline comparison can prove both runs issued the identical
// request schedule.
func ScheduleSHA256(ops []Op) string {
	data, err := json.Marshal(ops)
	if err != nil {
		panic(fmt.Sprintf("loadgen: marshal schedule: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
