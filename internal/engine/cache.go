package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/gate"
	"repro/internal/rescache"
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
	SharedPrograms = newProgramCache(DefaultProgramCacheEntries, DefaultProgramCacheBytes)
	SharedAnalyses = newAnalysisCache(DefaultAnalysisCacheEntries, DefaultAnalysisCacheBytes)
)

// memoEntry is one memoized value, computed by the first caller to
// reach it; concurrent callers block on that one computation.
type memoEntry[V any] struct {
	once sync.Once
	val  V
}

// memo is the bounded single-flight memo table under both caches: a
// rescache.Index of once-entries under a mutex, with hit and miss
// counters. An evicted key simply computes again on next use; holders
// of the evicted value keep a valid one.
type memo[V any] struct {
	mu        sync.Mutex
	idx       *rescache.Index[*memoEntry[V]]
	footprint int64
	hits      atomic.Uint64
	misses    atomic.Uint64
}

// init bounds the memo to maxEntries entries and maxBytes accounted
// bytes (≤ 0 leaves a dimension unbounded); each entry costs its key
// length plus footprint.
func (m *memo[V]) init(maxEntries int, maxBytes, footprint int64) {
	m.idx = rescache.NewIndex[*memoEntry[V]](maxEntries, maxBytes)
	m.footprint = footprint
}

// do returns the value memoized under key, calling compute on first
// use.
func (m *memo[V]) do(key string, compute func() V) V {
	m.mu.Lock()
	e, ok := m.idx.Get(key)
	if !ok {
		e = &memoEntry[V]{}
		m.idx.Put(key, int64(len(key))+m.footprint, e)
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// Stats returns a snapshot of the counters.
func (m *memo[V]) Stats() CacheStats {
	m.mu.Lock()
	n, bytes, ev := m.idx.Len(), m.idx.Bytes(), m.idx.Evictions()
	m.mu.Unlock()
	return CacheStats{
		Hits: m.hits.Load(), Misses: m.misses.Load(),
		Entries: n, Bytes: bytes, Evictions: ev,
	}
}

// Purge drops every entry (counters are kept).
func (m *memo[V]) Purge() {
	m.mu.Lock()
	m.idx.Purge()
	m.mu.Unlock()
}

// assembled is one memoized assembly, including its error: a source
// that fails to assemble fails identically every time.
type assembled struct {
	p   *asm.Program
	err error
}

// ProgramCache memoizes asm.Assemble keyed by source text, bounded by
// LRU eviction. Assembly is deterministic and the resulting Program is
// never mutated by the simulators (State.Load copies it into machine
// memory), so one shared instance per source is safe under
// concurrency.
type ProgramCache struct{ memo[assembled] }

func newProgramCache(maxEntries int, maxBytes int64) *ProgramCache {
	c := &ProgramCache{}
	c.init(maxEntries, maxBytes, programFootprint)
	return c
}

// Assemble returns the memoized program for src, assembling it on first
// use. Concurrent callers with the same source block on one assembly
// instead of duplicating it.
func (c *ProgramCache) Assemble(src string) (*asm.Program, error) {
	a := c.do(src, func() assembled {
		p, err := asm.Assemble(src)
		return assembled{p, err}
	})
	return a.p, a.err
}

// AnalysisCache memoizes gate.Analyze of the ART-9 core netlist keyed
// by technology fingerprint, bounded by LRU eviction. gate.Analyze is
// pure — it only reads the netlist and the technology — so a shared
// Analysis per key is safe; callers must treat the returned Analysis
// (including its Histogram map) as read-only.
type AnalysisCache struct{ memo[*gate.Analysis] }

func newAnalysisCache(maxEntries int, maxBytes int64) *AnalysisCache {
	c := &AnalysisCache{}
	c.init(maxEntries, maxBytes, analysisFootprint)
	return c
}

// Analyze returns the memoized analysis of ART9Netlist for tech,
// running the analyzer on first use. The key is tech's content
// fingerprint, so two separately built copies of one technology share
// an entry and an edited copy gets its own.
func (c *AnalysisCache) Analyze(tech *gate.Technology) *gate.Analysis {
	return c.do(tech.Fingerprint(), func() *gate.Analysis {
		return gate.Analyze(ART9Netlist(), tech)
	})
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
	return SharedAnalyses.Analyze(tech)
}
