// Command redhip-router fronts a sharded cluster of redhip-serve
// replicas: it consistent-hashes each job's trace family (the canonical
// spec key with schemes, inclusion and prefetch cleared) across the
// replicas that are registered and passing health checks, so per-spec
// dedup, trace/snapshot-cache affinity and run reuse fall out of the
// hash with no shared state.
//
// Usage:
//
//	redhip-router -addr :8090 -probe-interval 1s -fail-threshold 3
//
// Replicas self-register (redhip-serve -router http://router:8090
// -advertise http://replica:8080) and are admitted to the ring only
// while /readyz passes. A replica that stops answering probes for
// -fail-threshold consecutive attempts is declared dead: its key
// ranges re-hash to the survivors and its unfinished jobs are
// re-submitted to the new owners — idempotent by spec key, since the
// simulation is deterministic and a replica already holding a key's
// result dedups instead of re-running. Registration refuses a ring
// mixing build versions (bit-identical results across replicas are
// only guaranteed at equal code).
//
// Endpoints:
//
//	POST   /v1/jobs                 route a job to its family's owner -> 202 + router id
//	GET    /v1/jobs                 list routed jobs
//	GET    /v1/jobs/{id}            status (replica, re-home count, results)
//	DELETE /v1/jobs/{id}            cancel (forwarded to the owning replica)
//	GET    /v1/jobs/{id}/events     SSE progress, gap-free across re-homes
//	GET    /v1/jobs/{id}/results    the done job's result array, replica bytes verbatim
//	POST   /v1/cluster/register     replica self-registration
//	GET    /v1/cluster/status       members, states, ring size
//	GET    /metrics                 Prometheus text metrics
//	GET    /healthz                 liveness
//	GET    /readyz                  503 until at least one replica is in the ring
//
// Every job-facing response carries X-RedHiP-Replica naming the
// replica involved; replica rejections (429/503) are forwarded with
// the replica's own Retry-After rather than a synthesized one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"redhip/internal/cluster"
	"redhip/internal/version"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		seed       = flag.Uint64("seed", 1, "seed for the deterministic probe jitter")
		probeIvl   = flag.Duration("probe-interval", time.Second, "base period between health checks of a replica (jittered into [0.75,1.25) of it); the first check runs when a new replica registers")
		probeTO    = flag.Duration("probe-timeout", 0, "per-probe timeout (0 = half the interval)")
		failThresh = flag.Int("fail-threshold", 3, "consecutive probe failures that declare a replica dead and re-home its jobs")
		succThresh = flag.Int("success-threshold", 2, "consecutive probe passes a dead replica needs to rejoin the ring")
		vnodes     = flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per replica on the hash ring")
		maxJobs    = flag.Int("max-jobs", 1024, "max resident routed jobs (terminal jobs evict oldest-first)")
		grace      = flag.Duration("shutdown-grace", 10*time.Second, "watcher drain budget on SIGINT/SIGTERM")
		showVer    = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.String())
		return
	}

	rt, err := cluster.New(cluster.Options{
		Seed:             *seed,
		ProbeInterval:    *probeIvl,
		ProbeTimeout:     *probeTO,
		FailThreshold:    *failThresh,
		SuccessThreshold: *succThresh,
		Vnodes:           *vnodes,
		MaxJobs:          *maxJobs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "redhip-router:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("redhip-router: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "redhip-router:", err)
		os.Exit(1)
	case sig := <-sigc:
		log.Printf("redhip-router: %s — shutting down (grace %s)", sig, *grace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Router shutdown does not touch replicas: their jobs keep running,
	// and a restarted router re-learns the membership as replicas
	// re-register.
	if err := rt.Shutdown(ctx); err != nil {
		log.Printf("redhip-router: watcher drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("redhip-router: http shutdown: %v", err)
	}
	log.Printf("redhip-router: stopped")
}
