package art9

import (
	"time"

	"repro/internal/engine"
	"repro/internal/remote"
)

// Option configures the Evaluator built by New.
type Option func(*evalConfig)

type evalConfig struct {
	workers        int
	shards         int
	queue          int
	jobTimeout     time.Duration
	peers          []string
	failover       bool
	healthInterval time.Duration
	maxRetries     int
	chunk          int
	autoscaleMin   int
	autoscaleMax   int
	standbyPeers   []string
	scaleUp        float64
	scaleDown      float64
	scaleCooldown  time.Duration
	scaleInterval  time.Duration
	cache          bool
	cacheMaxBytes  int64
	cachePeers     []string
	cacheEpoch     uint64
}

// WithWorkers sets the pool size of each local shard (0 selects
// GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *evalConfig) { c.workers = n } }

// WithShards sets the number of local engine shards. Left at zero, one
// local shard is used — unless peers are configured, where zero means
// remote-only; WithShards(n > 0) adds local shards alongside the peers.
func WithShards(n int) Option {
	return func(c *evalConfig) { c.shards = n }
}

// WithQueue sets each local shard's buffered dispatch-queue depth
// (0 selects 2× the workers).
func WithQueue(n int) Option { return func(c *evalConfig) { c.queue = n } }

// WithJobTimeout bounds each local evaluation job; jobs that exceed it
// fail with ErrTimeout.
func WithJobTimeout(d time.Duration) Option { return func(c *evalConfig) { c.jobTimeout = d } }

// WithPeers adds one remote backend per art9-serve base URL (e.g.
// "http://host:9009"). Jobs fanned to a peer must carry a serializable
// spec — SuiteJobs and the manifest loader attach one; bare closure
// jobs fail on remote shards with a not-remotable error.
func WithPeers(urls ...string) Option {
	return func(c *evalConfig) { c.peers = append(c.peers, urls...) }
}

// WithFailover fronts the backends with a health-aware Balancer instead
// of the round-robin ShardSet: each job goes to the least-loaded healthy
// backend (liveness from local state and remote /v1/healthz probes), and
// jobs dropped by a dying backend — engine-closed results, severed
// streams, unreachable peers — are re-run on another backend within a
// bounded retry budget, so a suite completes as long as any backend
// survives. Tune with WithHealthInterval and WithMaxRetries.
func WithFailover() Option { return func(c *evalConfig) { c.failover = true } }

// WithHealthInterval sets the failover Balancer's health-probe period
// (0 selects 2s; negative disables the background loop). Only
// meaningful with WithFailover.
func WithHealthInterval(d time.Duration) Option {
	return func(c *evalConfig) { c.healthInterval = d }
}

// WithMaxRetries bounds how many times one job is re-dispatched after a
// backend-level failure (0 selects 2; negative disables failover
// retries). Only meaningful with WithFailover.
func WithMaxRetries(n int) Option { return func(c *evalConfig) { c.maxRetries = n } }

// WithChunk makes the failover Balancer dispatch in chunks of up to n
// jobs: a chunk reaches a remote backend as one acknowledged /v1/suite
// NDJSON stream (per-row acknowledgement, so a severed chunk
// re-dispatches only its unresolved jobs on the survivors), and chunk
// sizes follow the backend's free slots and scraped live capacity. 0 or
// 1 places each job on its own, one acknowledged stream per job. Only
// meaningful with WithFailover.
func WithChunk(n int) Option { return func(c *evalConfig) { c.chunk = n } }

// WithAutoscale selects the elastic Autoscaler front: the local shard
// count floats between min and max (min 0 selects 1), growing when
// jobs queue beyond the active capacity and shrinking — each retired
// shard drained before it is closed, so no in-flight job is lost —
// when utilization falls. Tune the hysteresis with WithScaleThresholds,
// WithScaleCooldown and WithScaleInterval; recruit remote capacity
// beyond max with WithStandbyPeers. Incompatible with WithShards,
// WithPeers and WithFailover: the autoscaler owns its topology.
func WithAutoscale(min, max int) Option {
	return func(c *evalConfig) { c.autoscaleMin, c.autoscaleMax = min, max }
}

// WithStandbyPeers lists art9-serve base URLs the autoscaler dials only
// when the local bound is exhausted and retires first when load drops —
// reserve capacity, not a fixed fleet (that is WithPeers). Only
// meaningful with WithAutoscale.
func WithStandbyPeers(urls ...string) Option {
	return func(c *evalConfig) { c.standbyPeers = append(c.standbyPeers, urls...) }
}

// WithScaleThresholds sets the autoscaler's hysteresis bounds on pool
// utilization: the pool grows at or above up (0 selects 0.8; queued
// jobs grow it regardless) and shrinks below down (0 selects 0.25).
// down must stay below up — hysteresis needs the gap. Only meaningful
// with WithAutoscale.
func WithScaleThresholds(up, down float64) Option {
	return func(c *evalConfig) { c.scaleUp, c.scaleDown = up, down }
}

// WithScaleCooldown sets the minimum gap between consecutive scale
// events (0 selects 2s; negative disables the gap). Only meaningful
// with WithAutoscale.
func WithScaleCooldown(d time.Duration) Option {
	return func(c *evalConfig) { c.scaleCooldown = d }
}

// WithScaleInterval sets the period of the autoscaler's background
// evaluation loop (0 selects 1s; negative disables it — scaling then
// only happens through Autoscaler.ScaleNow). Only meaningful with
// WithAutoscale.
func WithScaleInterval(d time.Duration) Option {
	return func(c *evalConfig) { c.scaleInterval = d }
}

// WithResultCache enables the fleet-wide result cache: before placing
// a job, the dispatch front consults a content-addressed store keyed by
// the job's spec (program source, iterations, technologies), and a hit
// short-circuits evaluation entirely — the replayed result reports
// Worker -1 and usually carries a *CachedRow as its Value (a stored
// row that is not in canonical form is decoded into a *JobReport
// instead). Only spec-carrying jobs participate (SuiteJobs and the
// manifest loader attach specs; File jobs and bare closures always
// compute), and failed jobs are never cached. Bound the store with
// WithCacheMaxBytes; share it across a fleet with WithCachePeers.
func WithResultCache() Option { return func(c *evalConfig) { c.cache = true } }

// WithCacheMaxBytes bounds the local result-cache store (0 selects the
// default, 64 MiB); cold entries age out LRU-first. Only meaningful
// with WithResultCache.
func WithCacheMaxBytes(n int64) Option { return func(c *evalConfig) { c.cacheMaxBytes = n } }

// WithCachePeers lists art9-serve base URLs whose /v1/cache tier is
// consulted on a local miss and filled when a job computes here, so hot
// jobs are evaluated once per fleet instead of once per process. A dead
// or cache-less peer degrades to a miss, never a failure. Only
// meaningful with WithResultCache.
func WithCachePeers(urls ...string) Option {
	return func(c *evalConfig) { c.cachePeers = append(c.cachePeers, urls...) }
}

// WithCacheEpoch sets the fleet-wide cache invalidation generation.
// The cache key already covers everything that determines a result —
// program content, iterations, the technology model's fingerprint —
// so the epoch exists for what keys cannot express: operator-driven
// invalidation ("abandon everything cached before today") and fencing
// off fleet members whose build differs in ways the key does not
// capture. Every /v1/cache exchange carries the epoch; a disagreement
// is a standing miss (lookup) or a rejected fill, never an error, so
// a mixed-epoch fleet degrades to computing instead of replaying
// another generation's rows. Only meaningful with WithResultCache.
func WithCacheEpoch(epoch uint64) Option {
	return func(c *evalConfig) { c.cacheEpoch = epoch }
}

// New builds an Evaluator from functional options — the one constructor
// behind which every backend topology lives:
//
//	art9.New()                                     // one local pool
//	art9.New(art9.WithWorkers(8))                  // sized local pool
//	art9.New(art9.WithShards(4))                   // 4 local shards
//	art9.New(art9.WithPeers("http://h1:9009"))     // remote-only
//	art9.New(art9.WithShards(2),                   // mixed: 2 local shards
//	         art9.WithPeers("http://h1:9009"))     //  + 1 remote peer
//	art9.New(art9.WithFailover(),                  // health-aware fleet with
//	         art9.WithPeers("http://h1:9009",      //  least-loaded dispatch
//	                        "http://h2:9009"))     //  and job failover
//	art9.New(art9.WithAutoscale(1, 4),             // elastic pool: 1–4 local
//	         art9.WithStandbyPeers(                //  shards, standby peers
//	                "http://h1:9009"))             //  recruited under burst
//
// Multiple backends compose behind a ShardSet that partitions batches
// round-robin and merges completion-order streams. Close the returned
// Evaluator when done; closing a composite closes every backend.
//
// New fails on an invalid peer URL and on incoherent option
// combinations — failover tuning (WithChunk, WithMaxRetries,
// WithHealthInterval) without WithFailover, autoscale tuning or standby
// peers without WithAutoscale, inverted autoscale bounds or thresholds,
// WithAutoscale mixed with a fixed topology, cache tuning
// (WithCachePeers, WithCacheMaxBytes, WithCacheEpoch) without
// WithResultCache — with an error wrapping the typed ErrInvalidOptions. The CLIs vet their flags
// through the same rule set, so the diagnostics match.
func New(opts ...Option) (Evaluator, error) {
	var cfg evalConfig
	for _, o := range opts {
		o(&cfg)
	}
	// remote.NewBackendWith owns the validation and composition rules
	// (shard defaulting, shared vs private caches, ShardSet, Balancer
	// or Autoscaler wrapping) so this constructor and serve.New cannot
	// drift.
	return remote.NewBackendWith(remote.BackendConfig{
		Shards: cfg.shards,
		Engine: engine.Options{
			Workers:    cfg.workers,
			Queue:      cfg.queue,
			JobTimeout: cfg.jobTimeout,
		},
		Peers:              cfg.peers,
		Failover:           cfg.failover,
		HealthInterval:     cfg.healthInterval,
		MaxRetries:         cfg.maxRetries,
		Chunk:              cfg.chunk,
		AutoscaleMin:       cfg.autoscaleMin,
		AutoscaleMax:       cfg.autoscaleMax,
		StandbyPeers:       cfg.standbyPeers,
		ScaleUpThreshold:   cfg.scaleUp,
		ScaleDownThreshold: cfg.scaleDown,
		ScaleCooldown:      cfg.scaleCooldown,
		ScaleInterval:      cfg.scaleInterval,
		Cache:              cfg.cache,
		CacheMaxBytes:      cfg.cacheMaxBytes,
		CachePeers:         cfg.cachePeers,
		CacheEpoch:         cfg.cacheEpoch,
	})
}
