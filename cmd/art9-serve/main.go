// Command art9-serve runs the streaming evaluation service: the same
// workloads art9-batch evaluates from a manifest file, served resident
// over HTTP with warm caches and persistent worker pools.
//
// Usage:
//
//	art9-serve                                  # :9009, 1 shard, GOMAXPROCS workers
//	art9-serve -addr :8080 -shards 4 -workers 2 # 4 engines × 2 workers
//	art9-serve -job-timeout 30s                 # cap each evaluation job
//	art9-serve -shards 0 -peers http://h1:9009,http://h2:9009
//	                                            # proxy-only front for a fleet
//
// The fleet flags (-workers, -shards, -peers, the balancer, autoscale
// and result-cache flags) are the ones art9-batch takes, with the same
// names, defaults and rules, except that -shards defaults to 1 here, so
// -peers alone runs one local shard beside the peers; `art9-serve -h`
// lists them. /v1/stats carries the balancer scorecards, the autoscale
// scale state and the result-cache counters of whichever is configured.
//
// Endpoints:
//
//	GET  /v1/healthz  liveness + pool shape
//	GET  /v1/stats    engine + cache counters
//	GET  /v1/capacity process-local free workers + queue depth
//	POST /v1/eval     one job (workload or inline source) → one report
//	POST /v1/suite    manifest → NDJSON report lines in completion order
//	                  (?ack=1: start/end acknowledgement rows, the stream
//	                  a balancer front's remote client consumes)
//	POST /v1/cache/lookup  result-cache keys → NDJSON hit/miss rows
//	                  (with -cache; absent otherwise)
//	POST /v1/cache/fill    sibling-computed rows → stored count
//	                  (with -cache; absent otherwise)
//
// Shutdown: SIGINT/SIGTERM stops accepting connections, drains in-flight
// requests (bounded by -shutdown-timeout) — each NDJSON stream runs to
// its last job — then closes the engines, which resolves anything still
// queued with an engine-closed error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/remote"
	"repro/internal/serve"
)

// shardsDefault is the -shards default: one local shard, kept beside
// -peers unless -shards 0 makes the front proxy-only.
const shardsDefault = 1

func main() {
	addr := flag.String("addr", ":9009", "listen address")
	jobTimeout := flag.Duration("job-timeout", 0, "per-evaluation-job timeout (0: none)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP read-header timeout")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown drain budget")
	fleetConfig := remote.FleetFlags(flag.CommandLine, shardsDefault)
	flag.Parse()

	cfg, warn, err := fleetConfig()
	if err != nil {
		fatal(err)
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "art9-serve: warning:", warn)
	}
	cfg.JobTimeout = *jobTimeout
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readTimeout,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprint(os.Stderr, listeningLine(*addr, srv, len(cfg.Peers)))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err) // listener died before any signal
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "art9-serve: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "art9-serve: shutdown:", err)
	}
	srv.Close() // handlers are done submitting; drain the engines
	fmt.Fprintln(os.Stderr, "art9-serve: stopped")
}

// listeningLine is the start-up line. It counts the shards of the server
// as built, the figure /v1/healthz reports, rather than the -shards flag,
// which autoscaling and the proxy-only default leave at 0 while an engine
// runs; peers are the -peers backends among them.
func listeningLine(addr string, srv *serve.Server, peers int) string {
	n := srv.Shards()
	return fmt.Sprintf("art9-serve: listening on %s (%d shard(s): %d local, %d peer(s))\n", addr, n, n-peers, peers)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-serve:", err)
	os.Exit(1)
}
