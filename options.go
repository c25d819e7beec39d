package art9

import (
	"time"

	"repro/internal/remote"
)

// Option configures the Evaluator built by New: each one sets fields of
// the fleet topology New hands to the shared backend constructor, the
// same declaration serve.Config and the CLIs' fleet flags fill.
type Option func(*remote.BackendConfig)

// WithWorkers sets the pool size of each local shard (0 selects
// GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *remote.BackendConfig) { c.Workers = n } }

// WithShards sets the number of local engine shards. Left at zero, one
// local shard is used — unless peers are configured, where zero means
// remote-only; WithShards(n > 0) adds local shards alongside the peers.
func WithShards(n int) Option {
	return func(c *remote.BackendConfig) { c.Shards = n }
}

// WithJobTimeout bounds each local evaluation job; jobs that exceed it
// fail with ErrTimeout.
func WithJobTimeout(d time.Duration) Option {
	return func(c *remote.BackendConfig) { c.JobTimeout = d }
}

// WithPeers adds one remote backend per art9-serve base URL (e.g.
// "http://host:9009"). Jobs fanned to a peer must carry a serializable
// spec — SuiteJobs and the manifest loader attach one; bare closure
// jobs fail on remote shards with a not-remotable error.
func WithPeers(urls ...string) Option {
	return func(c *remote.BackendConfig) { c.Peers = append(c.Peers, urls...) }
}

// WithFailover is a no-op: every fixed topology with more than one
// backend (WithShards above 1, or any WithPeers) is already fronted by a
// health-aware Balancer that fails jobs over.
//
// Deprecated: drop the option; turn failover off with WithMaxRetries(-1)
// and the probe loop with WithHealthInterval(-1).
func WithFailover() Option { return func(*remote.BackendConfig) {} }

// WithHealthInterval sets the Balancer's health-probe period (0 selects
// 2s, or no loop in an elastic pool; negative disables the background
// loop). Only meaningful where New builds a Balancer: WithShards above
// 1, any WithPeers, or WithAutoscale.
func WithHealthInterval(d time.Duration) Option {
	return func(c *remote.BackendConfig) { c.HealthInterval = d }
}

// WithMaxRetries bounds how many times one job is re-dispatched after a
// backend-level failure (0 selects 2; negative disables failover). Only
// meaningful where New builds a Balancer: WithShards above 1, any
// WithPeers, or WithAutoscale.
func WithMaxRetries(n int) Option { return func(c *remote.BackendConfig) { c.MaxRetries = n } }

// WithChunk makes the Balancer dispatch in chunks of up to n jobs: a
// chunk reaches a remote backend as one acknowledged /v1/suite NDJSON
// stream (per-row acknowledgement, so a severed chunk re-dispatches only
// its unresolved jobs on the survivors), and chunk sizes follow the
// backend's free slots and scraped live capacity. 0 or 1 places each job
// on its own, one acknowledged stream per job. Only meaningful where New
// builds a Balancer: WithShards above 1, any WithPeers, or
// WithAutoscale.
func WithChunk(n int) Option { return func(c *remote.BackendConfig) { c.Chunk = n } }

// WithAutoscale makes New build an elastic pool: a Balancer whose local
// shard count floats between min and max (min 0 selects 1), growing
// when jobs queue beyond the active capacity and shrinking — each
// retired shard drained before it is closed, so no in-flight job is
// lost — when utilization falls. Tune the hysteresis with
// WithScaleThresholds, WithScaleCooldown and WithScaleInterval; recruit
// remote capacity beyond max with WithStandbyPeers. WithPeers adds
// fixed members the pool never retires, and WithChunk, WithMaxRetries
// and WithHealthInterval tune the pool's Balancer. Incompatible with
// WithShards, which would fix the local shard count.
func WithAutoscale(min, max int) Option {
	return func(c *remote.BackendConfig) { c.AutoscaleMin, c.AutoscaleMax = min, max }
}

// WithStandbyPeers lists art9-serve base URLs the autoscaler dials only
// when the local bound is exhausted and retires first when load drops —
// reserve capacity, not a fixed fleet (that is WithPeers). Only
// meaningful with WithAutoscale.
func WithStandbyPeers(urls ...string) Option {
	return func(c *remote.BackendConfig) { c.StandbyPeers = append(c.StandbyPeers, urls...) }
}

// WithScaleThresholds sets the autoscaler's hysteresis bounds on pool
// utilization: the pool grows at or above up (0 selects 0.8; queued
// jobs grow it regardless) and shrinks below down (0 selects 0.25).
// down must stay below up — hysteresis needs the gap. Only meaningful
// with WithAutoscale.
func WithScaleThresholds(up, down float64) Option {
	return func(c *remote.BackendConfig) { c.ScaleUpThreshold, c.ScaleDownThreshold = up, down }
}

// WithScaleCooldown sets the minimum gap between consecutive scale
// events (0 selects 2s; negative disables the gap). Only meaningful
// with WithAutoscale.
func WithScaleCooldown(d time.Duration) Option {
	return func(c *remote.BackendConfig) { c.ScaleCooldown = d }
}

// WithScaleInterval sets the period of the autoscaler's background
// evaluation loop (0 selects 1s; negative disables it — scaling then
// only happens through ev.(*Balancer).Autoscaler().ScaleNow). Only
// meaningful with WithAutoscale.
func WithScaleInterval(d time.Duration) Option {
	return func(c *remote.BackendConfig) { c.ScaleInterval = d }
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
func WithResultCache() Option { return func(c *remote.BackendConfig) { c.Cache = true } }

// WithCacheMaxBytes bounds the local result-cache store (0 selects the
// default, 64 MiB); cold entries age out LRU-first. Only meaningful
// with WithResultCache.
func WithCacheMaxBytes(n int64) Option { return func(c *remote.BackendConfig) { c.CacheMaxBytes = n } }

// WithCachePeers lists art9-serve base URLs whose /v1/cache tier is
// consulted on a local miss and filled when a job computes here, so hot
// jobs are evaluated once per fleet instead of once per process. A dead
// or cache-less peer degrades to a miss, never a failure. Only
// meaningful with WithResultCache.
func WithCachePeers(urls ...string) Option {
	return func(c *remote.BackendConfig) { c.CachePeers = append(c.CachePeers, urls...) }
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
	return func(c *remote.BackendConfig) { c.CacheEpoch = epoch }
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
//	art9.New(art9.WithPeers("http://h1:9009",      // two peers, chunks of
//	                        "http://h2:9009"),     //  up to 8 jobs
//	         art9.WithChunk(8))
//	art9.New(art9.WithAutoscale(1, 4),             // elastic pool: 1–4 local
//	         art9.WithStandbyPeers(                //  shards, standby peers
//	                "http://h1:9009"))             //  recruited under burst
//
// One local shard, no peers and no autoscaling is a bare Engine. Every
// other topology is a Balancer: least-loaded dispatch over the
// backends, health probes, and job-level failover when a backend dies;
// with WithAutoscale its Autoscaler method returns the scaling policy.
// Close the returned Evaluator when done; closing a front closes every
// backend.
//
// New fails on an invalid peer URL and on incoherent option
// combinations — balancer tuning (WithChunk, WithMaxRetries,
// WithHealthInterval) on a lone local engine, autoscale tuning or
// standby peers without WithAutoscale, inverted autoscale bounds or
// thresholds, WithAutoscale with WithShards, cache tuning
// (WithCachePeers, WithCacheMaxBytes, WithCacheEpoch) without
// WithResultCache — with an error wrapping the typed
// ErrInvalidOptions. The CLIs vet their flags through the same
// rule set, so the diagnostics match.
func New(opts ...Option) (Evaluator, error) {
	var cfg remote.BackendConfig
	for _, o := range opts {
		o(&cfg)
	}
	return remote.NewBackendWith(cfg)
}
