// Command redhip-serve runs the simulation service: an HTTP API that
// accepts sweep jobs, executes them on a bounded worker pool backed by
// the materialise-once trace store, and exposes status polling, SSE
// progress streams and Prometheus-text metrics.
//
// Usage:
//
//	redhip-serve -addr :8080 -workers 4 -queue 64
//
// Each job's simulation pass may use up to GOMAXPROCS goroutines, one
// per scheme at most. Concurrent jobs share the CPUs through the Go
// scheduler, so a lone job runs on the whole machine.
//
// Endpoints:
//
//	POST   /v1/jobs                  submit a job (JSON spec) -> 202 + id
//	GET    /v1/jobs                  list resident jobs
//	GET    /v1/jobs/{id}             status + results
//	DELETE /v1/jobs/{id}             cancel
//	GET    /v1/jobs/{id}/events      SSE progress stream
//	POST   /v1/sweeps                submit a parameter grid -> 202 + id; expands
//	                                 into child jobs through the same admission
//	                                 path (dedup, shedding and the queue bound apply)
//	GET    /v1/sweeps                list resident sweeps
//	GET    /v1/sweeps/{id}           sweep status (+ per-child table; ?children=false)
//	DELETE /v1/sweeps/{id}           cancel the sweep, fan out to owned children
//	GET    /v1/sweeps/{id}/events    SSE sweep progress (replay-then-live)
//	GET    /v1/sweeps/{id}/artifacts aggregated Fig 9/Fig 7 tables, JSON or
//	                                 ?format=text (409 until the sweep is done)
//	GET    /metrics                  Prometheus text metrics
//	GET    /healthz                  liveness JSON {"status","version"} (200 while
//	                                 the process serves HTTP at all)
//	GET    /readyz                   readiness JSON {"ready","reasons"}: 503 with
//	                                 reason stopping (draining) or shedding
//
// Resilience: a job runs once. Its result is a deterministic replay of
// its spec, so a failed job would fail again and is reported failed; a
// panic fails its job, not the process. Each admitted job reserves its
// estimated trace footprint against -memory-budget, and oversized load
// is shed at the door with 503 + Retry-After.
//
// Performance: -snapshot-cache-bytes enables the warm-state snapshot
// store, so jobs that share a warmup prefix warm once and branch their
// measure phases bit-identically.
//
// Cluster mode: -router (with -advertise, optional -name and
// -lease-timeout) registers this instance with a redhip-router and
// runs it as one replica of a sharded cluster — the router's /readyz
// probes double as lease renewals, and losing the lease fences all
// non-terminal jobs (the router has re-homed them; see
// internal/cluster).
//
// Builds tagged `faultinject` additionally accept -fault / -fault-seed
// to install a deterministic fault schedule (see internal/faultinject)
// for chaos drills; untagged builds reject the flags.
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions are
// rejected, queued jobs are cancelled, in-flight jobs complete (bounded
// by -shutdown-grace).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"redhip/internal/serve"
	"redhip/internal/version"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent job executors (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "max queued jobs before 429")
		cacheBytes = flag.Uint64("cache-bytes", 0, "trace store byte budget (0 = default 64 MiB)")
		snapBytes  = flag.Uint64("snapshot-cache-bytes", 0, "warm-state snapshot store byte budget (0 disables; jobs with warmup_refs_per_core warm once and branch)")
		maxJobs    = flag.Int("max-jobs", 1024, "max resident jobs (LRU result cache size)")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "default per-job execution timeout")
		maxTimeout = flag.Duration("max-timeout", 30*time.Minute, "cap on spec-requested timeouts")
		grace      = flag.Duration("shutdown-grace", 30*time.Second, "drain budget for in-flight jobs on SIGINT/SIGTERM")
		memBudget  = flag.Int64("memory-budget", 0, "aggregate trace-byte admission budget (0 = default 1 GiB, -1 disables shedding)")
		routerURL  = flag.String("router", "", "redhip-router base URL; set to run as a cluster replica (registers and arms the lease watchdog)")
		advertise  = flag.String("advertise", "", "base URL the router reaches this replica at (required with -router)")
		name       = flag.String("name", "", "replica name in the ring (default: the advertise URL)")
		leaseTO    = flag.Duration("lease-timeout", 0, "fence after this long without a router probe (0 = auto: derived from the dead-declaration floor the router advertises at registration; explicit values must stay below that floor)")
		faultSpec  = flag.String("fault", "", "fault schedule for chaos drills, e.g. 'experiment.run:prob=0.1,err=boom' (requires a -tags faultinject build)")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for the -fault schedule")
		showVer    = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.String())
		return
	}

	injector, err := installFaultSchedule(*faultSpec, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redhip-serve:", err)
		os.Exit(1)
	}

	// Bind before serve.New: in cluster mode it starts registering at
	// once, and the router probes a new replica as soon as it registers,
	// so the advertised address must already accept connections.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redhip-serve:", err)
		os.Exit(1)
	}

	srv, err := serve.New(serve.Options{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		TraceCacheBytes:    *cacheBytes,
		SnapshotCacheBytes: *snapBytes,
		MaxStoredJobs:      *maxJobs,
		DefaultTimeout:     *jobTimeout,
		MaxTimeout:         *maxTimeout,
		MemoryBudgetBytes:  *memBudget,
		Fault:              injector,
		RouterURL:          *routerURL,
		AdvertiseURL:       *advertise,
		ReplicaName:        *name,
		LeaseTimeout:       *leaseTO,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "redhip-serve:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("redhip-serve: listening on %s", *addr)
		errc <- httpSrv.Serve(l)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "redhip-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		log.Printf("redhip-serve: %s — draining (grace %s)", sig, *grace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("redhip-serve: drain incomplete: %v", err)
	}
	// Listener shutdown second: SSE streams of finished jobs have
	// received their terminal events by now and close themselves.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("redhip-serve: http shutdown: %v", err)
	}
	log.Printf("redhip-serve: drained")
}
