package remote

import (
	"flag"
	"os"
	"strconv"
	"strings"
)

// FleetFlags registers the fleet-topology flags art9-batch and
// art9-serve share on fs, with shards as the -shards default (1 for
// art9-serve, which keeps a local shard beside its peers; 0 for
// art9-batch, which is proxy-only under -peers). Each CLI registers its
// own other flags, timeouts included, and sets JobTimeout itself.
//
// Call the returned function after fs.Parse. It reads the flags back as
// a BackendConfig and vets it with the rule set NewBackendWith applies,
// but with diagnostics that name flags; the warning is non-fatal advice
// for stderr, and the config comes back as read even with an error.
// Reading back splits the URL lists (blank entries dropped), drops an
// unset -shards under autoscaling (the elastic pool owns its shard
// count), and applies ART9_CACHE_EPOCH: the fleet-wide invalidation
// lever, which an explicit -cache-epoch overrides, which is ignored
// without -cache (so a site-wide export cannot trip the orphaned-flag
// rule on cache-less runs), and which degrades to 0 when malformed
// rather than blocking start-up.
func FleetFlags(fs *flag.FlagSet, shards int) func() (BackendConfig, string, error) {
	var cfg BackendConfig
	var peers, standbyPeers, cachePeers string
	fs.IntVar(&cfg.Shards, "shards", shards, "local engine shards (0: one, or none when -peers is set)")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker-pool size per local shard (0: GOMAXPROCS)")
	fs.StringVar(&peers, "peers", "", "comma-separated base URLs of downstream art9-serve instances to fan jobs out to (fixed members of an elastic pool under autoscaling)")
	fs.DurationVar(&cfg.HealthInterval, "health-interval", 0, "balancer health-probe period, with several backends or autoscaling (0: 2s, none under autoscaling; negative: probes off)")
	fs.IntVar(&cfg.MaxRetries, "max-retries", 0, "balancer failover budget per job, with several backends or autoscaling (0: 2; negative: no failover)")
	fs.IntVar(&cfg.Chunk, "chunk", 0, "balancer chunk size, with several backends or autoscaling: dispatch up to N jobs per backend as one acknowledged suite stream (0 or 1: per-job)")
	fs.IntVar(&cfg.AutoscaleMin, "autoscale-min", 0, "elastic pool floor: minimum local shards (0 with -autoscale-max: 1)")
	fs.IntVar(&cfg.AutoscaleMax, "autoscale-max", 0, "elastic pool ceiling: maximum local shards (0: autoscaling off)")
	fs.StringVar(&standbyPeers, "standby-peers", "", "comma-separated downstream art9-serve base URLs dialed only when the elastic pool's local ceiling is exhausted")
	fs.Float64Var(&cfg.ScaleUpThreshold, "scale-up", 0, "utilization at which the elastic pool grows (0: 0.8)")
	fs.Float64Var(&cfg.ScaleDownThreshold, "scale-down", 0, "utilization below which the elastic pool shrinks (0: 0.25)")
	fs.DurationVar(&cfg.ScaleCooldown, "scale-cooldown", 0, "minimum gap between scale events (0: 2s; negative: none)")
	fs.DurationVar(&cfg.ScaleInterval, "scale-interval", 0, "scale-evaluation period (0: 1s)")
	fs.BoolVar(&cfg.Cache, "cache", false, "consult the fleet-wide result cache before evaluating each job (hits replay with worker -1); art9-serve also answers sibling /v1/cache requests")
	fs.StringVar(&cachePeers, "cache-peers", "", "comma-separated sibling art9-serve base URLs whose /v1/cache tier answers local misses and receives local fills")
	fs.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "local result-cache bound in bytes (0: 64 MiB)")
	fs.Uint64Var(&cfg.CacheEpoch, "cache-epoch", 0, "cache invalidation generation: exchanges with peers on another epoch are standing misses (default: ART9_CACHE_EPOCH, else 0)")
	return func() (BackendConfig, string, error) {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		cfg.Peers = splitPeerList(peers)
		cfg.StandbyPeers = splitPeerList(standbyPeers)
		cfg.CachePeers = splitPeerList(cachePeers)
		if (cfg.AutoscaleMin != 0 || cfg.AutoscaleMax != 0) && !set["shards"] {
			cfg.Shards = 0
		}
		if cfg.Cache && !set["cache-epoch"] {
			if n, err := strconv.ParseUint(os.Getenv("ART9_CACHE_EPOCH"), 10, 64); err == nil {
				cfg.CacheEpoch = n
			}
		}
		warn, err := validateTopology(cfg, flagNames)
		return cfg, warn, err
	}
}

// splitPeerList parses a comma-separated URL flag value, dropping
// blanks so trailing commas are harmless.
func splitPeerList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
