package bench

import (
	"context"
	"encoding/json"
	"strconv"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/rescache"
	"repro/internal/sim"
)

// This file is the codec between the dispatch path and the fleet-wide
// result cache: internal/rescache stores opaque bytes under opaque
// keys, the engine speaks Job.Spec and result values, and only bench
// knows both vocabularies. The cached value is a normalized JobReport —
// the exact row a remote peer would have sent — so a cache hit replays
// through JobReportOf identically to a row computed anywhere in the
// fleet.

// ResultCache adapts a rescache tier to engine.ResultCache: it keys
// entries by the job's content-addressed identity (program source
// text, iterations, technology content fingerprints — never the
// display name, path, or timeout) and encodes results as normalized
// report rows.
type ResultCache struct {
	tier    *rescache.Tiered
	corrupt atomic.Uint64
}

var _ engine.ResultCache = (*ResultCache)(nil)

// NewResultCache wraps a tier (a local LRU, and the peers it shares
// rows with) for the dispatch path.
func NewResultCache(tier *rescache.Tiered) *ResultCache {
	return &ResultCache{tier: tier}
}

// Backing returns the tier this adapter wraps.
func (c *ResultCache) Backing() *rescache.Tiered { return c.tier }

// Stats exposes the underlying tier's counters for reports, folding in
// the codec-level corrupt-entry count only this adapter can observe. The
// tier counts a lookup as a hit once it returns bytes, but Lookup answers
// a corrupt row as a miss, so each corrupt row moves from Hits to Misses.
func (c *ResultCache) Stats() rescache.Stats {
	st := c.tier.Stats()
	st.Corrupt = c.corrupt.Load()
	n := min(st.Corrupt, st.Hits) // the two counters are read at different instants
	st.Hits -= n
	st.Misses += n
	return st
}

// Close drains the tier's write-behind peer fills. Fronts call it from
// their own Close, so a short batch run still seeds the fleet.
func (c *ResultCache) Close() error { return c.tier.Close() }

// Lookup answers a job spec from the cache. Only a *JobSpec the key
// derivation can address hits; a spec of any other type is a miss. A
// stored row that is the canonical encoding of a successful, unnamed
// JobReport (canonicalRow) is handed back undecoded, as a *CachedRow;
// any other row is decoded, and one that fails to decode or was somehow
// stored non-OK is treated as a miss AND deleted from the tier's local
// store — left in place it would re-fail on every future lookup — and
// counted in Stats().Corrupt. A row that decodes is handed back as the *JobReport
// it decodes to.
func (c *ResultCache) Lookup(ctx context.Context, spec any) (any, bool) {
	s, _ := spec.(*JobSpec)
	key, ok := resultKey(s)
	if !ok {
		return nil, false
	}
	raw, ok := c.tier.Get(ctx, key)
	if !ok {
		return nil, false
	}
	if canonicalRow(raw) {
		return &CachedRow{raw: raw}, true
	}
	var jr JobReport
	if err := json.Unmarshal(raw, &jr); err != nil || !jr.OK {
		c.corrupt.Add(1)
		c.tier.Local().Delete(ctx, key)
		return nil, false
	}
	return &jr, true
}

// Store records one successful result under the spec's key — the
// engine calls it after a local execution, the balancer and autoscaler
// after a successful attempt (whose value may already be a peer's
// *JobReport, or a member's cache hit). Failures are never cached: a
// timeout or a dead backend says nothing about the program.
func (c *ResultCache) Store(ctx context.Context, spec any, value any) {
	s, _ := spec.(*JobSpec)
	key, ok := resultKey(s)
	if !ok {
		return
	}
	raw, ok := cacheRowOf(s, value)
	if !ok {
		return
	}
	c.tier.Put(ctx, key, raw)
}

// resultKey derives the content-addressed cache key for a job spec.
// Only the fields that determine the computation participate: the
// simulator semantics version, the program (a built-in workload name
// or inline source — file jobs are refused, a path is not content),
// the iteration count, and each requested technology as its own
// name+fingerprint part pair (request order orders the implementations
// row; the fingerprint covers every timing/energy/area number, so an
// edited table can never replay a stale row). The fingerprint is the
// one the registry stored when the name was bound, so no model is built
// or hashed here. Name and TimeoutMS are display/placement concerns and
// are excluded, so renamed or re-bounded jobs still hit.
//
// Passing each technology as its own KeyOf part matters: the parts are
// length-prefixed, so ["a\x00b"] and ["a","b"] — which a joined list
// part would collapse — derive distinct keys. A technology name the
// registry doesn't know makes the spec uncacheable rather than keying
// on an unresolvable name.
func resultKey(s *JobSpec) (string, bool) {
	if s == nil {
		return "", false
	}
	j := s.Job
	if j.File != "" || (j.Workload == "" && j.Source == "") {
		return "", false
	}
	parts := make([]string, 0, 5+2*len(s.Technologies))
	parts = append(parts,
		"art9/result/v2",
		sim.SemanticsVersion,
		j.Workload,
		j.Source,
		strconv.Itoa(j.Iterations),
	)
	parts, err := appendTechnologyKeys(parts, s.Technologies)
	if err != nil {
		return "", false
	}
	return rescache.KeyOf(parts...), true
}

// cacheRowOf renders one successful result value as the canonical
// cached row: a JobReport normalized to be run-independent (no name,
// no elapsed time, Worker -1 — JobReportOf re-stamps the name on
// replay), encoded. A local execution's *Outcome is evaluated against
// the spec's technologies, exactly as the cold path would; a *JobReport
// from a remote peer is normalized as-is; a *CachedRow is already the
// canonical row.
func cacheRowOf(s *JobSpec, value any) ([]byte, bool) {
	var jr JobReport
	switch v := value.(type) {
	case *CachedRow:
		return v.raw, true
	case *Outcome:
		techs, err := Technologies(s.Technologies)
		if err != nil {
			return nil, false
		}
		jr = JobReport{
			OK:              true,
			Worker:          -1,
			Metrics:         MetricsReportOf(v),
			Implementations: ImplReports(v, techs),
		}
	case *JobReport:
		if !v.OK {
			return nil, false
		}
		jr = *v
		jr.Name, jr.Error, jr.ErrorKind = "", "", ""
		jr.ElapsedMS, jr.Worker = 0, -1
	default:
		return nil, false
	}
	raw, err := json.Marshal(&jr)
	return raw, err == nil
}

// ResultCacheReport snapshots the fleet-wide result-cache tier for
// BENCH reports and /v1/stats — the Results section of CacheReport.
type ResultCacheReport struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	// Peer counters describe the /v1/cache tier: lookups answered by a
	// peer, lookups no peer could answer, and transport failures (each
	// of which degraded to a local compute, never an error).
	PeerHits   uint64 `json:"peer_hits,omitempty"`
	PeerMisses uint64 `json:"peer_misses,omitempty"`
	PeerErrors uint64 `json:"peer_errors,omitempty"`
	// Coalesced counts lookups that piggybacked on an identical
	// in-flight peer lookup — the singleflight guard at work.
	Coalesced uint64 `json:"coalesced,omitempty"`
	// Epoch is the tier's invalidation generation; ModelDigest names
	// the compiled-in technology tables, so two fleet members with
	// different digests were built from different numbers.
	Epoch       uint64 `json:"epoch"`
	ModelDigest string `json:"model_digest,omitempty"`
	// Write-behind queue state: fills waiting, fills discarded (full
	// queue or cut-short drain), and exchanges refused over an epoch
	// disagreement.
	FillQueue    int    `json:"fill_queue,omitempty"`
	FillsDropped uint64 `json:"fills_dropped,omitempty"`
	EpochRejects uint64 `json:"epoch_rejects,omitempty"`
	// Corrupt counts entries that failed to decode and were evicted.
	Corrupt uint64 `json:"corrupt,omitempty"`
}

// ResultCacheReportFrom renders a store snapshot as a report section.
func ResultCacheReportFrom(st rescache.Stats) *ResultCacheReport {
	return &ResultCacheReport{
		Hits:         st.Hits,
		Misses:       st.Misses,
		Puts:         st.Puts,
		Evictions:    st.Evictions,
		Entries:      st.Entries,
		Bytes:        st.Bytes,
		MaxBytes:     st.MaxBytes,
		PeerHits:     st.PeerHits,
		PeerMisses:   st.PeerMisses,
		PeerErrors:   st.PeerErrors,
		Coalesced:    st.Coalesced,
		Epoch:        st.Epoch,
		ModelDigest:  gate.ModelDigest(),
		FillQueue:    st.FillQueue,
		FillsDropped: st.FillsDropped,
		EpochRejects: st.EpochRejects,
		Corrupt:      st.Corrupt,
	}
}

// ResultCacheReportFor finds the result cache on an Evaluator's
// dispatch path (engine.ResultCacheOf) and renders its
// counters, or nil when the topology runs uncached — callers attach it
// to CacheReport.Results exactly when it exists.
func ResultCacheReportFor(ev engine.Evaluator) *ResultCacheReport {
	a, ok := engine.ResultCacheOf(ev).(*ResultCache)
	if !ok {
		return nil
	}
	return ResultCacheReportFrom(a.Stats())
}
