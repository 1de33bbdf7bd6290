// Command bcp-serve runs the HTTP/JSON simulation service: a
// long-lived process accepting single runs and whole sweep grids over
// the shared worker pool and content-keyed result cache, streaming
// per-cell progress as Server-Sent Events and serving the result
// exports as artifacts. See docs/API.md for the endpoint reference and
// docs/TUTORIAL.md for a walkthrough.
//
// Usage:
//
//	bcp-serve                                   # listen on :8080
//	bcp-serve -addr 127.0.0.1:9090 -workers 8
//	bcp-serve -cache-dir ~/.cache/bulktx-sweep  # results survive restarts
//	bcp-serve -state-dir /var/lib/bulktx        # jobs survive crashes too
//	bcp-serve -queue 16 -job-workers 2
//	bcp-serve -log-format json -log-level debug
//	bcp-serve -pprof 127.0.0.1:6060             # profiling on a separate listener
//
// -workers bounds the simulations running at once across every job;
// jobs execute side by side, one per -workers slot unless -job-workers
// says otherwise. The in-memory result cache is capped at 64 MiB and
// evicts least recently used results (with -cache-dir, an evicted
// result is re-read from disk).
//
// Identical submissions collapse onto one job (content-keyed dedupe);
// a full job queue answers 429 with a Retry-After computed from the
// observed drain rate. Every request gets one structured access-log
// line on stderr, keyed by a propagated or generated X-Request-ID.
// The -pprof flag serves net/http/pprof on its own mux and listener,
// so the profiling surface never appears on the public address.
//
// With -state-dir, accepted jobs are journaled before they are
// acknowledged and a restarted process resubmits the unfinished ones;
// pair it with -cache-dir and recovery re-serves already-computed
// cells from disk. A cell that fails or panics is quarantined and the
// rest of its sweep completes; simulations are deterministic, so the
// cell is not retried. The listener
// runs with real header/read/idle timeouts (see -read-header-timeout
// and friends); SSE streams clear their own write deadline, so they
// are not bounded by -write-timeout. The BULKTX_FAULTS environment
// variable activates deterministic fault injection (test/chaos use
// only — the process logs loudly when set). On SIGINT/SIGTERM the
// service drains gracefully: accepted jobs finish (bounded by
// -drain-timeout), new submissions get 503, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bulktx/internal/cli"
	"bulktx/internal/faultinject"
	"bulktx/internal/service"
	"bulktx/internal/sweep"
	"bulktx/internal/telemetry"
)

func main() {
	cli.Exit("bcp-serve", run())
}

// serveConfig is buildService's input: the command line, decoded.
type serveConfig struct {
	workers    int
	cacheDir   string
	stateDir   string
	queue      int
	jobWorkers int
	maxCells   int
	maxJobs    int
	log        *slog.Logger
}

// buildService assembles the service from the command line; split out
// so the end-to-end tests drive exactly the wiring the binary runs.
func buildService(cfg serveConfig) (*service.Server, error) {
	var cache *sweep.Cache
	if cfg.cacheDir != "" {
		var err error
		if cache, err = sweep.NewDiskCache(cfg.cacheDir); err != nil {
			return nil, err
		}
	}
	return service.New(service.Options{
		Workers:    cfg.workers,
		Cache:      cache,
		QueueLimit: cfg.queue,
		JobWorkers: cfg.jobWorkers,
		MaxCells:   cfg.maxCells,
		MaxJobs:    cfg.maxJobs,
		Logger:     cfg.log,
		StateDir:   cfg.stateDir,
	})
}

// flagValues is validateFlags's input: every numeric flag that can be
// handed a nonsensical value, decoded but unvalidated.
type flagValues struct {
	workers, queue, jobWorkers int
	maxCells, maxJobs          int
	drain, readHdrTO, readTO   time.Duration
	writeTO, idleTO            time.Duration
}

// validateFlags rejects nonsensical flag values — a zero queue bound,
// a negative timeout — as usage errors (exit 2 with a usage hint)
// instead of letting them misconfigure a running service.
func validateFlags(v flagValues) error {
	switch {
	case v.workers < 0:
		return cli.Usagef("-workers %d: must be >= 0 (0 = all cores)", v.workers)
	case v.queue < 1:
		return cli.Usagef("-queue %d: must be >= 1", v.queue)
	case v.jobWorkers < 0:
		return cli.Usagef("-job-workers %d: must be >= 0 (0 = one per -workers slot)", v.jobWorkers)
	case v.maxCells < 1:
		return cli.Usagef("-max-cells %d: must be >= 1", v.maxCells)
	case v.maxJobs < 1:
		return cli.Usagef("-max-jobs %d: must be >= 1", v.maxJobs)
	case v.drain <= 0:
		return cli.Usagef("-drain-timeout %s: must be > 0", v.drain)
	case v.readHdrTO < 0:
		return cli.Usagef("-read-header-timeout %s: must be >= 0", v.readHdrTO)
	case v.readTO < 0:
		return cli.Usagef("-read-timeout %s: must be >= 0", v.readTO)
	case v.writeTO < 0:
		return cli.Usagef("-write-timeout %s: must be >= 0", v.writeTO)
	case v.idleTO < 0:
		return cli.Usagef("-idle-timeout %s: must be >= 0", v.idleTO)
	}
	return nil
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "simulations running at once across all jobs (0 = all cores)")
		cacheDir   = flag.String("cache-dir", "", "on-disk result cache directory (empty = in-memory only)")
		stateDir   = flag.String("state-dir", "", "crash-safe job journal directory: unfinished jobs resubmit on restart (empty = off)")
		queue      = flag.Int("queue", service.DefaultQueueLimit, "max queued jobs before submissions get 429")
		jobWorkers = flag.Int("job-workers", 0, "jobs executing concurrently, sharing the -workers budget (0 = one per -workers slot)")
		maxCells   = flag.Int("max-cells", service.DefaultMaxCells, "max simulations one submission may compile to")
		maxJobs    = flag.Int("max-jobs", service.DefaultMaxJobs, "terminal jobs retained before the oldest are evicted")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "max wait for accepted jobs on shutdown")
		readHdrTO  = flag.Duration("read-header-timeout", 10*time.Second, "max wait for a request's headers")
		readTO     = flag.Duration("read-timeout", 30*time.Second, "max wait for a whole request (specs are small)")
		writeTO    = flag.Duration("write-timeout", 0, "max response write time; 0 = unbounded (SSE clears its own deadline either way)")
		idleTO     = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off; keep it loopback)")
		tel        = telemetry.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if tel.HandleVersion(os.Stdout, "bcp-serve") {
		return nil
	}
	if err := validateFlags(flagValues{
		workers: *workers, queue: *queue, jobWorkers: *jobWorkers,
		maxCells: *maxCells, maxJobs: *maxJobs,
		drain: *drain, readHdrTO: *readHdrTO, readTO: *readTO,
		writeTO: *writeTO, idleTO: *idleTO,
	}); err != nil {
		return err
	}
	log, err := tel.Logger(os.Stderr)
	if err != nil {
		return cli.Usage(err)
	}

	// Deterministic chaos for smoke tests: BULKTX_FAULTS activates
	// seed-driven failure injection inside the real binary. Loud on
	// purpose — a production process should never run with it set.
	if spec, err := faultinject.LoadEnv(); err != nil {
		return cli.Usage(err)
	} else if spec != "" {
		log.Warn("FAULT INJECTION ACTIVE — this process will misbehave on purpose",
			"env", faultinject.EnvVar, "plan", spec)
	}

	svc, err := buildService(serveConfig{
		workers: *workers, cacheDir: *cacheDir, stateDir: *stateDir,
		queue: *queue, jobWorkers: *jobWorkers,
		maxCells: *maxCells, maxJobs: *maxJobs,
		log: log,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Real timeouts so stuck or malicious clients cannot pin
	// connections: SSE streams clear their own per-connection write
	// deadline, so they survive any -write-timeout.
	httpSrv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: *readHdrTO,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}
	log.Info("listening", "addr", "http://"+ln.Addr().String(), "build", telemetry.BuildInfo().String())

	// The profiling surface lives on its own mux and listener: the
	// public mux never routes /debug/pprof/, with or without -pprof.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		pprofSrv = &http.Server{Handler: telemetry.PprofMux()}
		go pprofSrv.Serve(pln) //nolint:errcheck // best-effort sidecar; main serve errors decide exit
		log.Info("pprof listening", "addr", "http://"+pln.Addr().String()+"/debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining
	log.Info("draining", "note", "new submissions get 503", "timeout", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Close(drainCtx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return err
	}
	if pprofSrv != nil {
		pprofSrv.Close() //nolint:errcheck // profiling sidecar; nothing to drain
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("drained, exiting")
	return nil
}
