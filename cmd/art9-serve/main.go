// Command art9-serve runs the streaming evaluation service: the same
// workloads art9-batch evaluates from a manifest file, served resident
// over HTTP with warm caches and persistent worker pools.
//
// Usage:
//
//	art9-serve                                  # :9009, 1 shard, GOMAXPROCS workers
//	art9-serve -addr :8080 -shards 4 -workers 2 # 4 engines × 2 workers
//	art9-serve -job-timeout 30s                 # cap each evaluation job
//	art9-serve -peers http://h1:9009,http://h2:9009
//	                                            # front a fleet: fan jobs out to
//	                                            # downstream art9-serve instances
//	                                            # (-shards 0 for proxy-only)
//	art9-serve -failover -peers ...             # health-aware fleet front:
//	                                            # peers are probed, jobs go to
//	                                            # the least-loaded live backend,
//	                                            # and a dying peer's jobs are
//	                                            # re-run on the survivors
//	art9-serve -failover -chunk 32 -peers ...   # chunked dispatch: up to 32
//	                                            # jobs per peer ride one
//	                                            # acknowledged suite stream,
//	                                            # sized by scraped capacity
//	art9-serve -autoscale-min 1 -autoscale-max 4
//	                                            # elastic pool: local shards
//	                                            # float between the bounds;
//	                                            # /v1/stats carries the scale
//	                                            # state and event log
//	art9-serve -autoscale-max 2 -standby-peers http://h1:9009
//	                                            # standby peers dialed only
//	                                            # once the local ceiling is
//	                                            # exhausted
//	art9-serve -cache -cache-peers http://h1:9009
//	                                            # fleet-wide result cache:
//	                                            # jobs already evaluated here
//	                                            # or on a cache peer replay
//	                                            # instead of running, and the
//	                                            # /v1/cache endpoints answer
//	                                            # sibling lookups/fills
//
// Endpoints:
//
//	GET  /v1/healthz  liveness + pool shape
//	GET  /v1/stats    engine + cache counters
//	GET  /v1/capacity process-local free workers + queue depth
//	POST /v1/eval     one job (workload or inline source) → one report
//	POST /v1/suite    manifest → NDJSON report lines in completion order
//	                  (?ack=1: start/end acknowledgement rows for chunked
//	                  failover dispatch)
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
	"strconv"
	"syscall"
	"time"

	"repro/internal/remote"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9009", "listen address")
	shards := flag.Int("shards", 1, "local engine shards (0 with -peers: proxy-only)")
	workers := flag.Int("workers", 0, "worker-pool size per shard (0: GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-evaluation-job timeout (0: none)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "HTTP read-header timeout")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown drain budget")
	peers := flag.String("peers", "", "comma-separated base URLs of downstream art9-serve instances to fan jobs out to")
	failover := flag.Bool("failover", false, "health-aware dispatch with job-level failover across the backends")
	healthInterval := flag.Duration("health-interval", 0, "failover health-probe period (0: 2s; negative: probes off)")
	maxRetries := flag.Int("max-retries", 0, "failover budget per job (0: 2; negative: no retries)")
	chunk := flag.Int("chunk", 0, "failover chunk size: dispatch up to N jobs per backend as one acknowledged suite stream (0 or 1: per-job)")
	autoscaleMin := flag.Int("autoscale-min", 0, "elastic pool floor: minimum local shards (0 with -autoscale-max: 1)")
	autoscaleMax := flag.Int("autoscale-max", 0, "elastic pool ceiling: maximum local shards (0: autoscaling off)")
	standbyPeers := flag.String("standby-peers", "", "comma-separated downstream art9-serve base URLs dialed only when the elastic pool's local ceiling is exhausted")
	scaleUp := flag.Float64("scale-up", 0, "utilization at which the elastic pool grows (0: 0.8)")
	scaleDown := flag.Float64("scale-down", 0, "utilization below which the elastic pool shrinks (0: 0.25)")
	scaleCooldown := flag.Duration("scale-cooldown", 0, "minimum gap between scale events (0: 2s; negative: none)")
	scaleInterval := flag.Duration("scale-interval", 0, "scale-evaluation period (0: 1s)")
	cache := flag.Bool("cache", false, "enable the fleet-wide result cache and the /v1/cache endpoints")
	cachePeers := flag.String("cache-peers", "", "comma-separated sibling art9-serve base URLs whose /v1/cache tier answers local misses and receives local fills")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "local result-cache bound in bytes (0: 64 MiB)")
	cacheEpoch := flag.Uint64("cache-epoch", 0, "cache invalidation generation: exchanges with peers on another epoch are standing misses (default: ART9_CACHE_EPOCH, else 0)")
	flag.Parse()

	peerURLs := remote.SplitPeerList(*peers)
	standbyURLs := remote.SplitPeerList(*standbyPeers)
	cachePeerURLs := remote.SplitPeerList(*cachePeers)
	applyCacheEpochEnv(cacheEpoch, *cache)
	if *autoscaleMin != 0 || *autoscaleMax != 0 {
		// The -shards default of 1 only describes the fixed topologies;
		// an elastic pool owns its shard count, so the untouched default
		// must not trip the -shards/-autoscale conflict rule.
		set := false
		flag.Visit(func(f *flag.Flag) { set = set || f.Name == "shards" })
		if !set {
			*shards = 0
		}
	}
	warn, err := validateFleetFlags(remote.BackendConfig{
		Shards:             *shards,
		Peers:              peerURLs,
		Failover:           *failover,
		HealthInterval:     *healthInterval,
		MaxRetries:         *maxRetries,
		Chunk:              *chunk,
		AutoscaleMin:       *autoscaleMin,
		AutoscaleMax:       *autoscaleMax,
		StandbyPeers:       standbyURLs,
		ScaleUpThreshold:   *scaleUp,
		ScaleDownThreshold: *scaleDown,
		ScaleCooldown:      *scaleCooldown,
		ScaleInterval:      *scaleInterval,
		Cache:              *cache,
		CacheMaxBytes:      *cacheMaxBytes,
		CachePeers:         cachePeerURLs,
		CacheEpoch:         *cacheEpoch,
	})
	if err != nil {
		fatal(err)
	}
	if warn != "" {
		fmt.Fprintln(os.Stderr, "art9-serve: warning:", warn)
	}
	srv, err := serve.New(serve.Config{
		Shards:             *shards,
		Workers:            *workers,
		JobTimeout:         *jobTimeout,
		Peers:              peerURLs,
		Failover:           *failover,
		HealthInterval:     *healthInterval,
		MaxRetries:         *maxRetries,
		Chunk:              *chunk,
		AutoscaleMin:       *autoscaleMin,
		AutoscaleMax:       *autoscaleMax,
		StandbyPeers:       standbyURLs,
		ScaleUpThreshold:   *scaleUp,
		ScaleDownThreshold: *scaleDown,
		ScaleCooldown:      *scaleCooldown,
		ScaleInterval:      *scaleInterval,
		Cache:              *cache,
		CacheMaxBytes:      *cacheMaxBytes,
		CachePeers:         cachePeerURLs,
		CacheEpoch:         *cacheEpoch,
	})
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
	fmt.Fprintf(os.Stderr, "art9-serve: listening on %s (%d local shard(s), %d peer(s))\n",
		*addr, *shards, len(peerURLs))

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

// applyCacheEpochEnv fills the -cache-epoch value from ART9_CACHE_EPOCH
// when the flag was not set explicitly. The env var is the fleet-wide
// invalidation lever — export it once and restart every member — so an
// explicit flag always wins over it, and it is ignored entirely while
// -cache is off so a site-wide export cannot trip the orphaned-flag
// rule on cache-less instances. A malformed value is ignored rather
// than fatal: the epoch degrades to 0, never blocks startup.
func applyCacheEpochEnv(epoch *uint64, cacheOn bool) {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "cache-epoch" })
	if set || !cacheOn {
		return
	}
	v := os.Getenv("ART9_CACHE_EPOCH")
	if v == "" {
		return
	}
	if n, err := strconv.ParseUint(v, 10, 64); err == nil {
		*epoch = n
	}
}

// validateFleetFlags applies the shared fleet rules
// (remote.ValidateFleetFlags — the same set art9.New enforces as
// ErrInvalidOptions) to this CLI's flag values — the -shards default of
// 1 rides in on the config; tuning flags without their front error out,
// topologies with nothing to move jobs between warn.
func validateFleetFlags(cfg remote.BackendConfig) (warning string, err error) {
	return remote.ValidateFleetFlags(cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-serve:", err)
	os.Exit(1)
}
