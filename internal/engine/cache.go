package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/gate"
)

// CacheStats snapshot one memoization cache's counters: lookups,
// resident entries, the approximate bytes they pin, and how many
// entries the bounds have evicted.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Entries   int
	Bytes     int64
	Evictions uint64
}

// Default bounds for the memoization caches. The entry caps carry the
// serve layer's historical 4096-program purge threshold into the caches
// themselves; the byte caps keep a long-lived instance fed unbounded
// distinct sources from growing without limit.
const (
	DefaultProgramCacheEntries  = 4096
	DefaultProgramCacheBytes    = 64 << 20
	DefaultAnalysisCacheEntries = 4096
	DefaultAnalysisCacheBytes   = 16 << 20

	// programFootprint and analysisFootprint are the accounted
	// per-entry overheads beyond the key text: an assembled program is
	// on the order of its source, an analysis is a fixed-size struct
	// plus a small histogram. Approximate by design — the bound is a
	// memory backstop, not an allocator.
	programFootprint  = 1 << 10
	analysisFootprint = 4 << 10
)

// The process-wide caches every engine shares by default, so repeated
// suite evaluations — successive Run calls, the bench harness, the
// batch CLI — reuse each other's work. Both are LRU-bounded (the
// Default*Cache* limits), so a long-lived embedder feeding unbounded
// distinct sources through Compile/AssembleCached ages cold entries
// out instead of growing without limit.
var (
	SharedPrograms = NewProgramCache()
	SharedAnalyses = NewAnalysisCache()
)

// lruEntry is one resident cache value with its accounted cost.
type lruEntry[E any] struct {
	key  string
	cost int64
	val  E
}

// lruIndex is the bookkeeping shared by both memoization caches — the
// same recency-list eviction and size accounting internal/rescache
// uses for the fleet-wide result cache. Not self-locking: callers
// operate under their cache's mutex.
type lruIndex[E any] struct {
	m          map[string]*list.Element
	order      *list.List // front = most recently used
	maxEntries int
	maxBytes   int64
	bytes      int64
	evictions  uint64
}

func newLRUIndex[E any](maxEntries int, maxBytes int64) *lruIndex[E] {
	return &lruIndex[E]{
		m:          map[string]*list.Element{},
		order:      list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// get returns the entry for key, refreshing its recency.
func (x *lruIndex[E]) get(key string) (E, bool) {
	el, ok := x.m[key]
	if !ok {
		var zero E
		return zero, false
	}
	x.order.MoveToFront(el)
	return el.Value.(*lruEntry[E]).val, true
}

// add inserts a new entry and evicts from the cold end until the
// bounds hold; the entry just inserted is never evicted, so a single
// oversized source still computes and memoizes.
func (x *lruIndex[E]) add(key string, cost int64, v E) {
	x.m[key] = x.order.PushFront(&lruEntry[E]{key: key, cost: cost, val: v})
	x.bytes += cost
	for (x.maxBytes > 0 && x.bytes > x.maxBytes) ||
		(x.maxEntries > 0 && x.order.Len() > x.maxEntries) {
		el := x.order.Back()
		if el == nil || x.order.Len() == 1 {
			break
		}
		e := x.order.Remove(el).(*lruEntry[E])
		delete(x.m, e.key)
		x.bytes -= e.cost
		x.evictions++
	}
}

// purge drops every entry; eviction counters are kept.
func (x *lruIndex[E]) purge() {
	x.m = map[string]*list.Element{}
	x.order.Init()
	x.bytes = 0
}

// progEntry memoizes one assembly, including its error: a source that
// fails to assemble fails identically every time.
type progEntry struct {
	once sync.Once
	p    *asm.Program
	err  error
}

// ProgramCache memoizes asm.Assemble keyed by source text, bounded by
// LRU eviction. Assembly is deterministic and the resulting Program is
// never mutated by the simulators (State.Load copies it into machine
// memory), so one shared instance per source is safe under
// concurrency. An evicted source simply re-assembles on next use —
// holders of the evicted Program keep a valid value.
type ProgramCache struct {
	mu     sync.Mutex
	idx    *lruIndex[*progEntry]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewProgramCache returns a cache with the default bounds.
func NewProgramCache() *ProgramCache {
	return NewProgramCacheSized(0, 0)
}

// NewProgramCacheSized returns a cache bounded to maxEntries entries
// and maxBytes accounted bytes; 0 selects the package default for that
// dimension, negative leaves it unbounded.
func NewProgramCacheSized(maxEntries int, maxBytes int64) *ProgramCache {
	if maxEntries == 0 {
		maxEntries = DefaultProgramCacheEntries
	}
	if maxBytes == 0 {
		maxBytes = DefaultProgramCacheBytes
	}
	return &ProgramCache{idx: newLRUIndex[*progEntry](maxEntries, maxBytes)}
}

// Assemble returns the memoized program for src, assembling it on first
// use. Concurrent callers with the same source block on one assembly
// instead of duplicating it.
func (c *ProgramCache) Assemble(src string) (*asm.Program, error) {
	c.mu.Lock()
	e, ok := c.idx.get(src)
	if !ok {
		e = &progEntry{}
		c.idx.add(src, int64(len(src))+programFootprint, e)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.p, e.err = asm.Assemble(src) })
	return e.p, e.err
}

// Stats returns a snapshot of the counters.
func (c *ProgramCache) Stats() CacheStats {
	c.mu.Lock()
	n, bytes, ev := c.idx.order.Len(), c.idx.bytes, c.idx.evictions
	c.mu.Unlock()
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Entries: n, Bytes: bytes, Evictions: ev,
	}
}

// Purge drops every entry (counters are kept).
func (c *ProgramCache) Purge() {
	c.mu.Lock()
	c.idx.purge()
	c.mu.Unlock()
}

type analysisEntry struct {
	once sync.Once
	an   *gate.Analysis
}

// AnalysisCache memoizes gate.Analyze keyed by (netlist, technology
// fingerprint), bounded by LRU eviction. gate.Analyze is pure — it only
// reads the netlist and the technology — so a shared Analysis per key is
// safe; callers must treat the returned Analysis (including its
// Histogram map) as read-only.
type AnalysisCache struct {
	mu     sync.Mutex
	idx    *lruIndex[*analysisEntry]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewAnalysisCache returns a cache with the default bounds.
func NewAnalysisCache() *AnalysisCache {
	return NewAnalysisCacheSized(0, 0)
}

// NewAnalysisCacheSized returns a cache bounded to maxEntries entries
// and maxBytes accounted bytes; 0 selects the package default for that
// dimension, negative leaves it unbounded.
func NewAnalysisCacheSized(maxEntries int, maxBytes int64) *AnalysisCache {
	if maxEntries == 0 {
		maxEntries = DefaultAnalysisCacheEntries
	}
	if maxBytes == 0 {
		maxBytes = DefaultAnalysisCacheBytes
	}
	return &AnalysisCache{idx: newLRUIndex[*analysisEntry](maxEntries, maxBytes)}
}

// Analyze returns the memoized analysis for (netlistKey, tech), building
// the netlist and running the analyzer on first use. netlistKey must
// uniquely name what build() constructs.
func (c *AnalysisCache) Analyze(netlistKey string, build func() *gate.Netlist, tech *gate.Technology) *gate.Analysis {
	key := netlistKey + "\x00" + tech.Fingerprint()
	c.mu.Lock()
	e, ok := c.idx.get(key)
	if !ok {
		e = &analysisEntry{}
		c.idx.add(key, int64(len(key))+analysisFootprint, e)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.an = gate.Analyze(build(), tech) })
	return e.an
}

// Stats returns a snapshot of the counters.
func (c *AnalysisCache) Stats() CacheStats {
	c.mu.Lock()
	n, bytes, ev := c.idx.order.Len(), c.idx.bytes, c.idx.evictions
	c.mu.Unlock()
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Entries: n, Bytes: bytes, Evictions: ev,
	}
}

// Purge drops every entry (counters are kept).
func (c *AnalysisCache) Purge() {
	c.mu.Lock()
	c.idx.purge()
	c.mu.Unlock()
}

// The ART-9 pipelined-core netlist is immutable once built and the
// analyzer never writes to it, so one process-wide copy serves every
// technology analysis.
var (
	art9Once sync.Once
	art9Net  *gate.Netlist
)

// ART9Netlist returns the memoized structural netlist of the pipelined
// ART-9 core. Treat it as read-only.
func ART9Netlist() *gate.Netlist {
	art9Once.Do(func() { art9Net = gate.BuildART9() })
	return art9Net
}

// AssembleCached assembles ART-9 source through the shared program cache.
func AssembleCached(src string) (*asm.Program, error) {
	return SharedPrograms.Assemble(src)
}

// AnalyzeART9 analyzes the ART-9 core netlist for tech through the shared
// analysis cache.
func AnalyzeART9(tech *gate.Technology) *gate.Analysis {
	return SharedAnalyses.Analyze("art9", ART9Netlist, tech)
}
