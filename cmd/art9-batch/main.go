// Command art9-batch runs a manifest of benchmark programs concurrently
// through an evaluation backend and emits a JSON report — the format CI
// archives as BENCH_*.json to track the performance trajectory.
//
// Usage:
//
//	art9-batch                                   # example manifest, stdout
//	art9-batch -manifest suite.json -o out.json  # explicit in/out
//	art9-batch -workers 4 -timeout 30s           # pool size, per-job cap
//	art9-batch -shards 4                         # 4 local engine shards
//	art9-batch -peers http://h1:9009,http://h2:9009
//	                                             # fan the manifest out across
//	                                             # remote art9-serve instances
//	                                             # (add -shards N to mix in
//	                                             # local pools)
//	                                             # Several backends sit behind
//	                                             # a health-aware balancer:
//	                                             # jobs on a dying backend are
//	                                             # re-run on the survivors, and
//	                                             # the report gains per-backend
//	                                             # failover counters
//	art9-batch -chunk 32 -peers ...              # chunked dispatch: up to 32
//	                                             # jobs per backend travel as
//	                                             # one acknowledged suite
//	                                             # stream, sized by scraped
//	                                             # capacity; a severed chunk
//	                                             # re-runs only its
//	                                             # unresolved jobs
//	art9-batch -max-retries -1 -health-interval -1 -shards 2
//	                                             # balancer without failover
//	                                             # or health probes
//	art9-batch -autoscale-min 1 -autoscale-max 4 # elastic pool: local shards
//	                                             # float between the bounds,
//	                                             # growing under queued load
//	                                             # and draining before every
//	                                             # shrink; the report gains
//	                                             # the scale-event log
//	art9-batch -autoscale-max 2 \
//	           -standby-peers http://h1:9009     # standby peers are dialed
//	                                             # only once the local bound
//	                                             # is exhausted
//	art9-batch -cache \
//	           -cache-peers http://h1:9009       # fleet-wide result cache:
//	                                             # jobs whose content-addressed
//	                                             # spec was already evaluated
//	                                             # (here or on a cache peer)
//	                                             # replay instead of running;
//	                                             # the report's cache.results
//	                                             # section counts hits
//
// A manifest names jobs drawn from the built-in suite, inline RV32
// sources, or assembly files, plus the technologies to evaluate each
// job's cycle counts against:
//
//	{
//	  "technologies": ["cntfet32", "stratixv"],
//	  "jobs": [
//	    {"name": "bubble", "workload": "bubble"},
//	    {"name": "mine", "file": "prog.s", "iterations": 10}
//	  ]
//	}
//
// File jobs are read locally and shipped to peers by content, never by
// path. The manifest schema and per-job report rows are shared with the
// art9-serve HTTP endpoints (internal/bench), so a job renders the same
// whether it ran from this CLI, over the network, or on a remote peer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	art9 "repro"
	"repro/internal/bench"
	"repro/internal/remote"
	"repro/internal/xlate"
)

func main() {
	manifest := flag.String("manifest", "examples/batch/manifest.json", "batch manifest (JSON)")
	out := flag.String("o", "-", "report destination (- for stdout)")
	workers := flag.Int("workers", 0, "worker-pool size per local shard (0: GOMAXPROCS)")
	shards := flag.Int("shards", 0, "local engine shards (0: one, or none when -peers is set)")
	peers := flag.String("peers", "", "comma-separated base URLs of art9-serve instances to fan jobs out to")
	healthInterval := flag.Duration("health-interval", 0, "balancer health-probe period, with several backends (0: 2s; negative: probes off)")
	maxRetries := flag.Int("max-retries", 0, "balancer failover budget per job, with several backends (0: 2; negative: no failover)")
	chunk := flag.Int("chunk", 0, "balancer chunk size, with several backends: dispatch up to N jobs per backend as one acknowledged suite stream (0 or 1: per-job)")
	autoscaleMin := flag.Int("autoscale-min", 0, "elastic pool floor: minimum local shards (0 with -autoscale-max: 1)")
	autoscaleMax := flag.Int("autoscale-max", 0, "elastic pool ceiling: maximum local shards (0: autoscaling off)")
	standbyPeers := flag.String("standby-peers", "", "comma-separated art9-serve base URLs dialed only when the elastic pool's local ceiling is exhausted")
	scaleUp := flag.Float64("scale-up", 0, "utilization at which the elastic pool grows (0: 0.8)")
	scaleDown := flag.Float64("scale-down", 0, "utilization below which the elastic pool shrinks (0: 0.25)")
	scaleCooldown := flag.Duration("scale-cooldown", 0, "minimum gap between scale events (0: 2s; negative: none)")
	scaleInterval := flag.Duration("scale-interval", 0, "scale-evaluation period (0: 1s)")
	timeout := flag.Duration("timeout", 0, "per-job timeout (0: none)")
	compact := flag.Bool("compact", false, "emit the report without indentation")
	cache := flag.Bool("cache", false, "consult the fleet-wide result cache before evaluating each job (hits replay with worker -1)")
	cachePeers := flag.String("cache-peers", "", "comma-separated art9-serve base URLs whose /v1/cache tier answers local misses and receives local fills")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "local result-cache bound in bytes (0: 64 MiB)")
	cacheEpoch := flag.Uint64("cache-epoch", 0, "cache invalidation generation: exchanges with peers on another epoch are standing misses (default: ART9_CACHE_EPOCH, else 0)")
	flag.Parse()

	peerURLs := remote.SplitPeerList(*peers)
	standbyURLs := remote.SplitPeerList(*standbyPeers)
	cachePeerURLs := remote.SplitPeerList(*cachePeers)
	applyCacheEpochEnv(cacheEpoch, *cache)
	warn, err := validateFleetFlags(remote.BackendConfig{
		Shards:             *shards,
		Peers:              peerURLs,
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
		fmt.Fprintln(os.Stderr, "art9-batch: warning:", warn)
	}

	m, err := bench.LoadManifest(*manifest)
	if err != nil {
		fatal(err)
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		fatal(err)
	}
	jobs, err := m.EngineJobs(filepath.Dir(*manifest), xlate.Options{})
	if err != nil {
		fatal(err)
	}
	// Stamp the flag onto each job (manifest timeout_ms wins): a job's
	// own Timeout rides the wire spec, so the bound holds on remote
	// peers too — the engine option below only covers local shards.
	bench.ApplyJobTimeout(jobs, *timeout)

	opts := []art9.Option{
		art9.WithWorkers(*workers),
		art9.WithJobTimeout(*timeout),
		art9.WithPeers(peerURLs...),
		art9.WithChunk(*chunk),
		art9.WithHealthInterval(*healthInterval),
		art9.WithMaxRetries(*maxRetries),
	}
	if *shards > 0 {
		opts = append(opts, art9.WithShards(*shards))
	}
	if *autoscaleMin != 0 || *autoscaleMax != 0 {
		opts = append(opts, art9.WithAutoscale(*autoscaleMin, *autoscaleMax),
			art9.WithStandbyPeers(standbyURLs...),
			art9.WithScaleThresholds(*scaleUp, *scaleDown),
			art9.WithScaleCooldown(*scaleCooldown),
			art9.WithScaleInterval(*scaleInterval))
	}
	if *cache {
		opts = append(opts, art9.WithResultCache(),
			art9.WithCachePeers(cachePeerURLs...),
			art9.WithCacheMaxBytes(*cacheMaxBytes),
			art9.WithCacheEpoch(*cacheEpoch))
	}
	ev, err := art9.New(opts...)
	if err != nil {
		fatal(err)
	}
	defer func() {
		// The run is complete by the time this fires; a close failure
		// means a backend could not shut down cleanly (a wedged peer,
		// an unreachable standby) and deserves a visible warning even
		// though the report has already been written.
		if cerr := ev.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "art9-batch: close:", cerr)
		}
	}()

	start := time.Now()
	results, _ := ev.Run(context.Background(), jobs)
	wall := time.Since(start)

	rep := bench.Report{
		Schema:  "art9-batch/v1",
		Created: time.Now().UTC().Format(time.RFC3339),
		WallMS:  float64(wall.Microseconds()) / 1e3,
		Peers:   len(peerURLs),
	}
	for _, r := range results {
		jr := bench.JobReportOf(r, techs)
		if !jr.OK {
			rep.Failures++
		}
		rep.Jobs = append(rep.Jobs, jr)
	}
	rep.Cache = bench.SharedCacheReport()
	// With -cache, surface the result-cache counters: a warm fleet shows
	// nonzero hits here and rows that never rode a worker (worker -1).
	rep.Cache.Results = bench.ResultCacheReportFor(ev)
	// Per-run counters only: a long-lived peer's lifetime totals would
	// say nothing about this batch. Workers therefore counts local
	// pools; remote capacity is the peers field.
	rep.Engine = bench.RunReportFor(ev)
	rep.Workers = rep.Engine.Workers
	// Behind a balancer, record the fleet behaviour: which backends
	// carried the work and how many jobs had to be re-run elsewhere.
	rep.Balancer = bench.BalancerReportFor(ev)

	if err := emit(*out, rep, !*compact); err != nil {
		fatal(err)
	}
	if rep.Failures > 0 {
		fatal(fmt.Errorf("%d of %d jobs failed", rep.Failures, len(rep.Jobs)))
	}
}

func emit(dest string, rep bench.Report, indent bool) error {
	var raw []byte
	var err error
	if indent {
		raw, err = json.MarshalIndent(rep, "", "  ")
	} else {
		raw, err = json.Marshal(rep)
	}
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if dest == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(dest, raw, 0o644)
}

// applyCacheEpochEnv fills the -cache-epoch value from ART9_CACHE_EPOCH
// when the flag was not set explicitly. The env var is the fleet-wide
// invalidation lever — export it once and restart every member — so an
// explicit flag always wins over it, and it is ignored entirely while
// -cache is off so a site-wide export cannot trip the orphaned-flag
// rule on cache-less runs. A malformed value is ignored rather than
// fatal: the epoch degrades to 0, never blocks the batch.
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
// ErrInvalidOptions) to this CLI's flag values: tuning flags without
// their front error out, an autoscaled pool that can never scale warns.
func validateFleetFlags(cfg remote.BackendConfig) (warning string, err error) {
	return remote.ValidateFleetFlags(cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "art9-batch:", err)
	os.Exit(1)
}
