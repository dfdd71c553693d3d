// Command simd serves the verification flow over HTTP:
// simulation-as-a-service on a pool of prepared designs, so repeated
// verify/bench requests for the same workload instance reset-and-replay
// a cached session instead of re-elaborating.
//
// Endpoints (see docs/SERVER.md for the protocol tour):
//
//	POST /v1/verify         N verified rounds (default 1)
//	POST /v1/bench          N unverified rounds, for throughput
//	POST /v1/sweep/sharded  one shard of a sharded campaign
//	GET  /v1/backends       simulator-backend catalog and default
//	GET  /statsz            admission, pool and throughput counters
//	GET  /healthz           liveness
//
// Run endpoints take an api.Request JSON body and stream NDJSON
// api.RunRecord lines; /v1/sweep/sharded takes an api.SweepRequest and
// streams that shard's records (a whole scenario is a one-shard
// sweep). Overload answers 429 with a Retry-After header.
// SIGINT/SIGTERM drain gracefully: in-flight streams finish, new
// requests are refused.
//
// Usage:
//
//	simd                          # serve on :8047 with defaults
//	simd -addr :9000 -workers 16  # bounded worker pool
//	simd -max-sessions 4          # LRU session pool capacity
//	simd -rate 50 -burst 100      # token-bucket admission
//	simd -backend compiled        # default simulator backend
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
	"strings"
	"syscall"
	"time"

	"repro/internal/flow"
	"repro/internal/simd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr  = flag.String("addr", ":8047", "listen address")
		drain = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
		cfg   simd.Config
	)
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrently executing requests (0 = one per CPU)")
	flag.IntVar(&cfg.MaxQueue, "queue", 0, "admitted requests waiting for a worker (0 = workers, negative = none)")
	flag.IntVar(&cfg.MaxSessions, "max-sessions", 0, "prepared-session pool capacity, LRU-evicted (0 = 8)")
	flag.IntVar(&cfg.SessionInFlight, "session-inflight", 0, "concurrent requests per pooled session (0 = workers)")
	flag.Float64Var(&cfg.Rate, "rate", 0, "token-bucket admission rate in requests/sec (0 = unlimited)")
	flag.IntVar(&cfg.Burst, "burst", 0, "token-bucket depth (0 = ceil(rate), min 1)")
	flag.IntVar(&cfg.MaxRounds, "max-rounds", 0, "rounds cap per request (0 = 4096)")
	flag.StringVar(&cfg.Backend, "backend", "", "default simulator backend: "+strings.Join(flow.BackendNames(), ", "))
	flag.Parse()

	if cfg.Backend != "" {
		if _, err := flow.LookupBackend(cfg.Backend); err != nil {
			return err
		}
	}

	srv := &http.Server{Addr: *addr, Handler: simd.New(cfg)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("simd: serving on %s", *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately via default handling
	log.Printf("simd: draining (up to %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("simd: drained, bye")
	return nil
}
