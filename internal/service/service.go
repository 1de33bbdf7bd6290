// Package service exposes the sweep engine as a long-lived HTTP/JSON
// simulation service — simulation-as-a-service over the content-keyed
// result cache, so many clients amortize one pool instead of re-running
// sweeps per CLI invocation.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST   /v1/runs                       submit one scenario (seeded repetitions)
//	POST   /v1/sweeps                     submit a sweep.SpecDoc grid
//	GET    /v1/jobs                       list jobs in submission order
//	GET    /v1/jobs/{id}                  job status
//	DELETE /v1/jobs/{id}                  cancel a queued or running job
//	GET    /v1/jobs/{id}/events           SSE progress stream (history replayed)
//	GET    /v1/jobs/{id}/artifacts/{name} results.json | results.csv | report.md | trace.jsonl
//	GET    /healthz                       liveness + queue depth
//	GET    /metrics                       Prometheus text metrics
//
// Submissions are content-keyed: the job id is a hash over the compiled
// job list, so identical specs — regardless of JSON formatting —
// collapse onto one queued, running or completed job, and the second
// client is answered immediately with the first job's id. Beneath that,
// the shared sweep.Pool simulates duplicate cells within one job once
// and serves cells any earlier job finished from its cache. The
// job queue is bounded: when full, submissions are rejected with 429
// and a Retry-After header computed from the observed drain rate
// (backpressure instead of unbounded memory). Close drains the service
// gracefully: accepted jobs finish, new submissions get 503.
//
// Resilience: with Options.StateDir set, every accepted job is recorded
// in an append-only journal before the submission is acknowledged, and
// a restarted service resubmits the unfinished ones — paired with a
// disk cache, recovery re-serves already-computed cells for free.
// Cells that panic are retried with capped exponential backoff and
// quarantined after Options.Retry.MaxAttempts, so one poisoned cell
// yields a partial result instead of sinking the whole sweep.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"bulktx/internal/netsim"
	"bulktx/internal/report"
	"bulktx/internal/sweep"
	"bulktx/internal/telemetry"
)

// Defaults for zero-valued Options fields.
const (
	// DefaultQueueLimit bounds the queued-jobs backlog.
	DefaultQueueLimit = 64
	// DefaultMaxCells bounds how many simulations one submission may
	// compile to.
	DefaultMaxCells = 10000
	// DefaultMaxJobs bounds how many terminal jobs the store retains
	// before the oldest are evicted.
	DefaultMaxJobs = 1024
	// DefaultRetryAfter is the advertised backoff on 429 responses.
	DefaultRetryAfter = time.Second
	// maxBodyBytes bounds request bodies; specs are small JSON
	// documents.
	maxBodyBytes = 1 << 20
)

// Options configures a Server. The zero value is usable: all cores, a
// fresh in-memory cache, one job executor and the default limits.
type Options struct {
	// Workers is the sweep pool's worker count (<= 0 selects all
	// cores). Cells of one job run on this pool in parallel.
	Workers int
	// Cache memoizes simulation results across jobs; nil selects a
	// fresh in-memory cache (pass a disk cache to persist results
	// across service restarts).
	Cache *sweep.Cache
	// QueueLimit bounds how many jobs may wait behind the executors
	// before submissions are rejected with 429 (<= 0 selects
	// DefaultQueueLimit).
	QueueLimit int
	// JobWorkers is how many jobs execute concurrently (<= 0 selects
	// 1; cells within a job are already parallel).
	JobWorkers int
	// MaxCells rejects submissions whose spec compiles to more than
	// this many simulations (<= 0 selects DefaultMaxCells).
	MaxCells int
	// MaxJobs bounds the job store: once more than this many jobs
	// exist, the oldest done/failed jobs — including their outcomes
	// and event histories — are evicted and their ids answer 404
	// (<= 0 selects DefaultMaxJobs). An evicted spec resubmits as a
	// fresh job; its cells still hit the result cache.
	MaxJobs int
	// RetryAfter is the backoff advertised on 429 responses (<= 0
	// selects DefaultRetryAfter).
	RetryAfter time.Duration
	// Logger receives the service's structured logs: one access-log
	// line per request and one lifecycle line per job state
	// transition. nil discards them.
	Logger *slog.Logger
	// StateDir, when non-empty, enables the crash-safe job journal:
	// accepted jobs are recorded under this directory before the
	// submission is acknowledged, and a restarted service resubmits the
	// unfinished ones. Empty disables journaling (jobs die with the
	// process, the pre-journal behavior).
	StateDir string
	// Retry is the per-cell retry policy handed to the sweep pool. The
	// zero value means one attempt per cell (no retries).
	Retry sweep.RetryPolicy
}

// New builds a Server and starts its job executors. It fails only when
// a configured StateDir cannot be opened or its journal is unreadable.
func New(o Options) (*Server, error) {
	if o.QueueLimit <= 0 {
		o.QueueLimit = DefaultQueueLimit
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.MaxCells <= 0 {
		o.MaxCells = DefaultMaxCells
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = DefaultMaxJobs
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	cache := o.Cache
	if cache == nil {
		cache = sweep.NewCache()
	}
	log := o.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	s := &Server{
		pool:       &sweep.Pool{Workers: o.Workers, Cache: cache, Retry: o.Retry},
		queueLimit: o.QueueLimit,
		maxCells:   o.MaxCells,
		maxJobs:    o.MaxJobs,
		retryAfter: o.RetryAfter,
		log:        log,
		hist:       newHistograms(),
		jobs:       make(map[string]*job),
	}
	// A full disk degrades the cache to its memory tier instead of
	// failing cells: log once, count every occurrence, keep the result.
	s.pool.OnCacheError = func(_ string, err error) {
		s.counters.cacheWriteErrors.Add(1)
		s.cacheErrOnce.Do(func() {
			s.log.Warn("disk cache write failed; falling back to in-memory results", "error", err)
		})
	}

	var pending []journalRecord
	if o.StateDir != "" {
		jl, recs, err := openJournal(o.StateDir, func(err error) {
			s.counters.journalErrors.Add(1)
			s.journalErrOnce.Do(func() {
				s.log.Warn("job journal append failed; accepted jobs may not survive a crash", "error", err)
			})
		})
		if err != nil {
			return nil, err
		}
		s.journal = jl
		pending = recs
	}
	// Size the queue for the configured limit plus the recovery
	// backlog, so resubmitting every journaled job can never block (or
	// get bounced by) the very startup doing it.
	s.queue = make(chan *job, o.QueueLimit+len(pending))

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleJobArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	s.recoverPending(pending)
	for w := 0; w < o.JobWorkers; w++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// apiError is the JSON body of every non-2xx response. Field names the
// offending request field when the failure is a validation error.
type apiError struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
	// Field names the offending spec field, when known.
	Field string `json:"field,omitempty"`
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing left to report to
}

// writeError writes err as an apiError body, extracting the offending
// field name from netsim.FieldError validation failures.
func writeError(w http.ResponseWriter, status int, err error) {
	body := apiError{Error: err.Error()}
	var fe *netsim.FieldError
	if errors.As(err, &fe) {
		body.Field = fe.Field
	}
	writeJSON(w, status, body)
}

// RunRequest is the body of POST /v1/runs: one simulation scenario in
// friendly units, executed as Runs seeded repetitions of a single grid
// point. Omitted fields inherit the paper's scenario exactly like the
// bcp-sim flags; the field names mirror sweep.SpecDoc's singular forms.
type RunRequest struct {
	// Case selects the scenario template: "single-hop" (default) or
	// "multi-hop".
	Case string `json:"case,omitempty"`
	// Model is the evaluation model: "dual" (default), "sensor",
	// "802.11".
	Model string `json:"model,omitempty"`
	// Senders is the CBR sender count (default 15).
	Senders int `json:"senders,omitempty"`
	// Burst is the dual model's alpha-s* threshold in sensor packets
	// (default 100).
	Burst int `json:"burst,omitempty"`
	// Traffic is the arrival process: "cbr" (default), "poisson",
	// "onoff".
	Traffic string `json:"traffic,omitempty"`
	// RateBps and DurationS override the per-sender rate and the
	// simulated run length.
	RateBps   float64 `json:"rate_bps,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	// Runs is the number of seeded repetitions (default 1); Seed is
	// the base seed.
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Topology, TopologySeed and Clusters select the deployment shape
	// ("grid" default; "uniform", "clustered", "linear").
	Topology     string `json:"topology,omitempty"`
	TopologySeed int64  `json:"topology_seed,omitempty"`
	Clusters     int    `json:"clusters,omitempty"`
	// ChurnRate and ChurnMeanDownS enable random node churn.
	ChurnRate      float64 `json:"churn_rate,omitempty"`
	ChurnMeanDownS float64 `json:"churn_mean_down_s,omitempty"`
	// SensorLoss and WifiLoss inject random frame loss per channel.
	SensorLoss float64 `json:"sensor_loss,omitempty"`
	WifiLoss   float64 `json:"wifi_loss,omitempty"`
	// DeadlineS bounds the job's execution wall-clock in seconds; a job
	// still running when it expires is unwound between cells and
	// reported failed. 0 (the default) means unbounded. The deadline is
	// not part of the job's content key: resubmitting a spec with a
	// different deadline dedupes onto the existing job.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// sweepRequest is the body of POST /v1/sweeps: a sweep.SpecDoc — the
// same document cmd/bcp-sweep -spec reads — plus the service-level
// execution deadline.
type sweepRequest struct {
	sweep.SpecDoc
	// DeadlineS bounds the job's execution wall-clock in seconds
	// (0 = unbounded); see RunRequest.DeadlineS.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// specDoc lowers the singular run request onto the sweep document
// shape, so both submission kinds validate and compile through one
// path.
func (r RunRequest) specDoc() sweep.SpecDoc {
	doc := sweep.SpecDoc{
		Case:           r.Case,
		RateBps:        r.RateBps,
		DurationS:      r.DurationS,
		Runs:           r.Runs,
		Seed:           r.Seed,
		TopologySeed:   r.TopologySeed,
		Clusters:       r.Clusters,
		ChurnMeanDownS: r.ChurnMeanDownS,
		SensorLoss:     r.SensorLoss,
		WifiLoss:       r.WifiLoss,
	}
	if r.Model != "" {
		doc.Models = []string{r.Model}
	}
	if r.Senders != 0 {
		doc.Senders = []int{r.Senders}
	}
	if r.Burst != 0 {
		doc.Bursts = []int{r.Burst}
	}
	if r.Traffic != "" {
		doc.Traffics = []string{r.Traffic}
	}
	if r.Topology != "" {
		doc.Topologies = []string{r.Topology}
	}
	if r.ChurnRate != 0 {
		doc.ChurnRates = []float64{r.ChurnRate}
	}
	return doc
}

// decodeBody decodes the request body into v, rejecting unknown fields
// and oversized bodies.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	return nil
}

// handleSubmitRun accepts a single-scenario job.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, kindRun, req.specDoc(), req.DeadlineS)
}

// handleSubmitSweep accepts a sweep grid in the sweep.SpecDoc shape —
// the same document cmd/bcp-sweep -spec reads.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, kindSweep, req.SpecDoc, req.DeadlineS)
}

// submit compiles the document, content-keys it, and either adopts an
// existing job, enqueues a new one, or rejects with backpressure.
func (s *Server) submit(w http.ResponseWriter, kind string, doc sweep.SpecDoc, deadlineS float64) {
	if deadlineS < 0 {
		writeError(w, http.StatusBadRequest,
			&netsim.FieldError{Field: "deadline_s", Reason: "must be >= 0"})
		return
	}
	// float64(math.MaxInt64) is 2^63, the first nanosecond count a
	// time.Duration cannot hold.
	if deadlineS*float64(time.Second) >= math.MaxInt64 {
		writeError(w, http.StatusBadRequest,
			&netsim.FieldError{Field: "deadline_s", Reason: "exceeds the longest representable duration (~292 years)"})
		return
	}
	spec, err := doc.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Bound the grid before compiling it: a few bytes of JSON can
	// declare billions of cells.
	if n := spec.Size(); n > s.maxCells {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec compiles to %d simulations, limit %d", n, s.maxCells))
		return
	}
	jobs, err := spec.Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("spec compiles to zero simulations"))
		return
	}
	rawDoc, err := json.Marshal(doc)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("encoding spec for the journal: %w", err))
		return
	}
	deadline := time.Duration(deadlineS * float64(time.Second))
	j, outcome := s.adopt(kind, jobs, rawDoc, deadline, true)
	switch outcome {
	case submitClosed:
		writeError(w, http.StatusServiceUnavailable, errors.New("service is shutting down"))
	case submitFull:
		s.counters.rejected.Add(1)
		hint := s.retryAfterHint(time.Now())
		w.Header().Set("Retry-After", strconv.Itoa(int((hint+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (%d queued); retry in ~%s", s.queueLimit, hint.Round(time.Second)))
	case submitDeduped:
		w.Header().Set(jobIDHeader, j.id)
		st := j.status()
		st.Deduped = true
		writeJSON(w, http.StatusOK, st)
	default:
		w.Header().Set(jobIDHeader, j.id)
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

// handleListJobs reports every job's status in submission order.
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		list = append(list, j.status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		// Jobs is the status list in submission order.
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: list})
}

// lookup resolves a job id, writing the 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
	}
	return j
}

// handleJobStatus reports one job's status.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleCancelJob cancels a queued or running job: queued jobs
// terminate immediately, running ones unwind at the next cell
// boundary. Either way the response is 202 with the job's current
// status — poll or subscribe to observe the terminal "canceled" state.
// Jobs already terminal answer 409.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if !s.cancelJob(j) {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is already %s; nothing to cancel", j.id, j.currentState()))
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobArtifact serves a completed job's exports.
func (s *Server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, outcome := j.state, j.outcome
	j.mu.Unlock()
	switch state {
	case jobFailed, jobCanceled:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s %s; no artifacts", j.id, state))
		return
	case jobQueued, jobRunning:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; artifacts appear when it completes", j.id, state))
		return
	}
	switch name := r.PathValue("name"); name {
	case "results.json":
		w.Header().Set("Content-Type", "application/json")
		sweep.WriteJSON(w, outcome) //nolint:errcheck // streaming to a gone client
	case "results.csv":
		w.Header().Set("Content-Type", "text/csv")
		sweep.WriteCSV(w, outcome) //nolint:errcheck // streaming to a gone client
	case "report.md":
		w.Header().Set("Content-Type", "text/markdown")
		w.Write(report.SweepMarkdown("bulktx job "+j.id, outcome)) //nolint:errcheck
	case "trace.jsonl":
		s.serveTrace(w, j)
	default:
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown artifact %q (want results.json, results.csv, report.md or trace.jsonl)", name))
	}
}

// handleHealthz is the liveness probe: 200 with queue depths, status
// "draining" once Close has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	status := "ok"
	if closed {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		// Status is "ok", or "draining" during graceful shutdown.
		Status string `json:"status"`
		// JobsQueued and JobsRunning are the live queue depths.
		JobsQueued  int64 `json:"jobs_queued"`
		JobsRunning int64 `json:"jobs_running"`
	}{status, s.counters.queued.Load(), s.counters.running.Load()})
}
