// Package rescache is the fleet-wide result cache: a content-addressed
// key/value store for finished job rows, shared between the dispatch
// path of every evaluator front (engine, balancer, autoscaler) and the
// /v1/cache wire tier that serve instances expose to their peers.
//
// The package is deliberately a leaf: keys are opaque strings (the
// caller hashes its content-addressed identity with KeyOf) and values
// are opaque bytes (internal/bench owns the row codec), so rescache
// imports nothing above the standard library and every layer of the
// stack can depend on it without cycles.
//
// One bounded recency index, Index, is the core of every cache in the
// repo: the LRU store below and the engine's program and analysis
// memos each keep their entries in one. Two stores compose into the
// per-process tier:
//
//   - LRU — a bounded in-process store with byte and entry accounting.
//   - Tiered — local-first lookup over an LRU plus remote Peers (the
//     /v1/cache clients from internal/remote), with a singleflight
//     guard so a thundering herd of identical misses turns into one
//     peer round-trip and one local fill.
//
// A Tiered store carries an epoch — the fleet-wide invalidation
// generation. Hits and fills are only exchanged between members on the
// same epoch: a peer client stamps the epoch on every exchange and the
// other side refuses a mismatch, which degrades to a miss (or a dropped
// fill), never an error, so bumping the epoch on part of a fleet
// empties the shared tier without any member poisoning another. Peer
// fills are write-behind: Put enqueues onto a bounded queue drained by
// one background worker in batches, and Close drains what is queued
// (with a deadline) so short-lived batch runs still seed their peers
// before exit.
package rescache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxBytes bounds an LRU store when the caller passes 0: large
// enough for tens of thousands of bench rows, small enough to be an
// afterthought next to a serve instance's working set.
const DefaultMaxBytes = 64 << 20

// DefaultMaxEntries bounds an LRU store's entry count when the caller
// passes 0 — a backstop against pathological tiny-value churn.
const DefaultMaxEntries = 65536

// Write-behind bounds of a Tiered store with peers. The queue bound
// is a backstop, not a throughput knob: under steady load the worker
// drains batches far faster than the dispatch path enqueues single
// rows, so a full queue means the peers are unreachable and dropping
// fills (they are an optimization) is the right degradation.
const (
	// fillQueue is the bounded queue's capacity in entries; when it
	// is full, Put drops the peer fill (the local store is always
	// filled) and counts it.
	fillQueue = 1024
	// fillBatch is the most entries one peer round carries.
	fillBatch = 64
	// drainTimeout bounds how long Close waits for the worker to
	// deliver what is queued before cutting it off.
	drainTimeout = 5 * time.Second
)

// Stats is a point-in-time snapshot of a cache tier. Local counters
// (Hits..Bytes) describe the in-process store; Peer counters describe
// the remote tier and stay zero for a bare LRU.
type Stats struct {
	// Hits and Misses count lookups answered and unanswered by the
	// tier as a whole: a Tiered store counts a peer-answered lookup
	// as one hit, not a local miss plus a peer hit.
	Hits   uint64
	Misses uint64
	// Puts counts stores accepted; Evictions counts entries dropped
	// to honour the byte or entry bound.
	Puts      uint64
	Evictions uint64
	// Entries and Bytes describe the resident local store; MaxBytes
	// is its configured bound.
	Entries  int
	Bytes    int64
	MaxBytes int64
	// PeerHits/PeerMisses count lookups that reached the remote tier;
	// PeerErrors counts transport failures (each degrades to a miss,
	// never an error — a dead peer means compute, not failure).
	PeerHits   uint64
	PeerMisses uint64
	PeerErrors uint64
	// Coalesced counts lookups that piggybacked on an identical
	// in-flight peer lookup instead of issuing their own.
	Coalesced uint64
	// Epoch is the tier's invalidation generation. Hits and fills are
	// only exchanged between fleet members on the same epoch; bumping
	// it makes every previously shared entry unreachable.
	Epoch uint64
	// FillQueue is the number of write-behind peer fills waiting in
	// the queue right now; FillsDropped counts fills discarded because
	// the queue was full or a drain was cut short.
	FillQueue    int
	FillsDropped uint64
	// EpochRejects counts hits and fills refused because the two sides
	// disagreed on the epoch — each degrades to a miss or a dropped
	// fill, never an error.
	EpochRejects uint64
	// Corrupt counts entries that failed to decode and were evicted by
	// the codec layer above the store (internal/bench); the store
	// itself never sets it.
	Corrupt uint64
}

// Entry is one key/value pair, the unit of a batched peer fill.
type Entry struct {
	Key string
	Val []byte
}

// Peer is one remote member of a Tiered store: the /v1/cache client
// from internal/remote, or a test's fake. Get and PutBatch never fail
// (a broken peer degrades to a miss or a dropped fill) and Stats
// reports the peer's transport and epoch counters; all three are safe
// to call concurrently.
//
// Values are owned by the tier once handed to PutBatch and by the
// caller once returned from Get; neither side may mutate a slice after
// handing it over.
type Peer interface {
	Get(ctx context.Context, key string) ([]byte, bool)
	PutBatch(ctx context.Context, entries []Entry)
	Stats() Stats
}

// KeyOf derives a cache key from the parts of a content-addressed
// identity. Parts are length-prefixed before hashing so ("ab","c")
// and ("a","bc") cannot collide.
func KeyOf(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LRU is the bounded in-process store: an Index of values with byte
// and entry accounting, safe for concurrent use.
type LRU struct {
	mu       sync.Mutex
	idx      *Index[[]byte]
	maxBytes int64

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
}

// NewLRU builds a bounded store. maxBytes 0 selects DefaultMaxBytes
// and maxEntries 0 selects DefaultMaxEntries; negative values leave
// that dimension unbounded.
func NewLRU(maxBytes int64, maxEntries int) *LRU {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	if maxEntries == 0 {
		maxEntries = DefaultMaxEntries
	}
	return &LRU{idx: NewIndex[[]byte](maxEntries, maxBytes), maxBytes: maxBytes}
}

// Get returns the cached value and refreshes its recency.
func (c *LRU) Get(_ context.Context, key string) ([]byte, bool) {
	c.mu.Lock()
	val, ok := c.idx.Get(key)
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, replacing any previous value, then evicts
// from the cold end until the bounds hold again. A value larger than
// the whole byte bound is refused outright rather than flushing the
// store for one entry.
func (c *LRU) Put(_ context.Context, key string, val []byte) {
	cost := int64(len(key) + len(val))
	if c.maxBytes > 0 && cost > c.maxBytes {
		return
	}
	c.mu.Lock()
	c.idx.Put(key, cost, val)
	c.mu.Unlock()
	c.puts.Add(1)
}

// Delete removes key from the store, if present. The eviction counter
// is untouched: Evictions counts entries dropped to honour the bounds,
// not deliberate removals.
func (c *LRU) Delete(_ context.Context, key string) {
	c.mu.Lock()
	c.idx.Delete(key)
	c.mu.Unlock()
}

// Stats snapshots the store's counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	entries, bytes, evictions := c.idx.Len(), c.idx.Bytes(), c.idx.Evictions()
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: evictions,
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  c.maxBytes,
	}
}

// flight is one in-progress peer lookup; waiters block on done and
// then read val/ok.
type flight struct {
	done chan struct{}
	val  []byte
	ok   bool
}

// Tiered is the per-process cache tier: a local store answered first,
// then each peer in order, with a peer hit filled back into the local
// store. Concurrent misses on the same key coalesce into a single
// peer lookup (the singleflight guard), so a thundering herd of
// identical jobs costs one round-trip. Peer fills are write-behind
// (see Put); a tier with peers must be Closed to drain them.
type Tiered struct {
	local *LRU
	peers []Peer
	epoch uint64

	mu      sync.Mutex
	flights map[string]*flight

	// Write-behind machinery; all nil/zero when the tier has no peers.
	fills        chan Entry
	fillMu       sync.RWMutex // guards fillsClosed against Put/Close races
	fillsClosed  bool
	fillBatch    int
	drainTimeout time.Duration
	workerDone   chan struct{}
	workerCancel context.CancelFunc
	closeOnce    sync.Once
	closeErr     error

	hits         atomic.Uint64
	misses       atomic.Uint64
	peerHits     atomic.Uint64
	peerMisses   atomic.Uint64
	coalesced    atomic.Uint64
	fillsDropped atomic.Uint64
}

// TieredConfig configures a tier.
type TieredConfig struct {
	Local *LRU
	Peers []Peer
	// Epoch is the tier's invalidation generation, reported in Stats.
	// The peers enforce it: each /v1/cache client is built on the
	// tier's epoch and stamps it onto every exchange.
	Epoch uint64
}

// NewTieredWith composes the local store and remote peers into one
// tier. With no peers it is a counting wrapper over local, so callers
// get one Stats shape regardless of topology; a tier with peers starts
// one background worker, so Close it to drain and stop.
func NewTieredWith(cfg TieredConfig) *Tiered {
	return newTiered(cfg, fillQueue, fillBatch, drainTimeout)
}

// newTiered is NewTieredWith with the write-behind bounds given: the
// queue's capacity, the entries one peer round carries, and how long
// Close waits for the drain.
func newTiered(cfg TieredConfig, queue, batch int, drain time.Duration) *Tiered {
	t := &Tiered{
		local:        cfg.Local,
		peers:        cfg.Peers,
		epoch:        cfg.Epoch,
		flights:      make(map[string]*flight),
		fillBatch:    batch,
		drainTimeout: drain,
	}
	if len(t.peers) > 0 {
		t.fills = make(chan Entry, queue)
		t.workerDone = make(chan struct{})
		ctx, cancel := context.WithCancel(context.Background())
		t.workerCancel = cancel
		go t.fillWorker(ctx)
	}
	return t
}

// Epoch returns the tier's invalidation generation.
func (t *Tiered) Epoch() uint64 { return t.epoch }

// Local returns the in-process store of the tier. The serve layer's
// /v1/cache endpoints answer from it directly — never through the
// tier — so two peers pointed at each other cannot loop a miss.
func (t *Tiered) Local() *LRU { return t.local }

// Get answers from the local store, then from the peers; a peer hit
// is filled into the local store before returning so the next lookup
// stays in-process.
func (t *Tiered) Get(ctx context.Context, key string) ([]byte, bool) {
	if v, ok := t.local.Get(ctx, key); ok {
		t.hits.Add(1)
		return v, true
	}
	if len(t.peers) == 0 {
		t.misses.Add(1)
		return nil, false
	}
	v, ok := t.peerGet(ctx, key)
	if ok {
		t.hits.Add(1)
		return v, true
	}
	t.misses.Add(1)
	return nil, false
}

// peerGet performs the singleflight-guarded remote lookup: the first
// caller for a key queries the peers and fills the local store; every
// concurrent duplicate waits for that flight's answer.
func (t *Tiered) peerGet(ctx context.Context, key string) ([]byte, bool) {
	t.mu.Lock()
	if f, inflight := t.flights[key]; inflight {
		t.mu.Unlock()
		t.coalesced.Add(1)
		select {
		case <-f.done:
			return f.val, f.ok
		case <-ctx.Done():
			return nil, false
		}
	}
	f := &flight{done: make(chan struct{})}
	t.flights[key] = f
	t.mu.Unlock()

	for _, p := range t.peers {
		if v, ok := p.Get(ctx, key); ok {
			t.peerHits.Add(1)
			t.local.Put(ctx, key, v)
			f.val, f.ok = v, true
			break
		}
	}
	if !f.ok {
		t.peerMisses.Add(1)
	}

	t.mu.Lock()
	delete(t.flights, key)
	t.mu.Unlock()
	close(f.done)
	return f.val, f.ok
}

// Put fills the local store, then enqueues the entry for the
// write-behind worker to fan out to the peers. The enqueue never
// blocks: a full queue drops the peer fill (the local fill always
// lands) and counts it in Stats.FillsDropped, so a dispatch path can
// never stall behind a slow peer. After Close the peer fill is
// silently dropped.
func (t *Tiered) Put(ctx context.Context, key string, val []byte) {
	t.local.Put(ctx, key, val)
	if t.fills == nil {
		return
	}
	t.fillMu.RLock()
	if !t.fillsClosed {
		select {
		case t.fills <- Entry{Key: key, Val: val}:
		default:
			t.fillsDropped.Add(1)
		}
	}
	t.fillMu.RUnlock()
}

// fillWorker is the single background goroutine behind the
// write-behind queue: it blocks for one entry, gathers whatever else
// is immediately available up to the batch bound, and flushes the
// batch to every peer. When Close closes the queue the worker keeps
// receiving until the buffer is empty — that is the drain — and then
// exits.
func (t *Tiered) fillWorker(ctx context.Context) {
	defer close(t.workerDone)
	for {
		e, ok := <-t.fills
		if !ok {
			return
		}
		batch := make([]Entry, 1, t.fillBatch)
		batch[0] = e
	gather:
		for len(batch) < t.fillBatch {
			select {
			case e, ok := <-t.fills:
				if !ok {
					t.flush(ctx, batch)
					return
				}
				batch = append(batch, e)
			default:
				break gather
			}
		}
		t.flush(ctx, batch)
	}
}

// flush delivers one batch to every peer in one PutBatch each. A
// cancelled ctx — the drain deadline firing — drops the batch instead
// of blocking Close behind unreachable peers.
func (t *Tiered) flush(ctx context.Context, batch []Entry) {
	if ctx.Err() != nil {
		t.fillsDropped.Add(uint64(len(batch)))
		return
	}
	for _, p := range t.peers {
		if ctx.Err() != nil {
			return
		}
		p.PutBatch(ctx, batch)
	}
}

// Close drains the write-behind queue and stops the worker. Queued
// fills are delivered to the peers before Close returns — the drain
// contract a short-lived batch run relies on to seed the fleet — up
// to the configured deadline; past it the remaining fills are dropped
// (and counted) and Close reports the cut-off. Close is idempotent
// and a tier without peers Closes trivially.
func (t *Tiered) Close() error {
	t.closeOnce.Do(func() {
		if t.fills == nil {
			return
		}
		t.fillMu.Lock()
		t.fillsClosed = true
		close(t.fills)
		t.fillMu.Unlock()
		timer := time.NewTimer(t.drainTimeout)
		defer timer.Stop()
		select {
		case <-t.workerDone:
		case <-timer.C:
			t.workerCancel()
			<-t.workerDone
			t.closeErr = fmt.Errorf("rescache: write-behind drain exceeded %v; queued peer fills dropped", t.drainTimeout)
		}
		t.workerCancel()
	})
	return t.closeErr
}

// Stats merges the tier: its own hit/miss view, the local store's
// occupancy and eviction counters, the write-behind queue state, and
// every peer's transport and epoch counters.
func (t *Tiered) Stats() Stats {
	st := t.local.Stats()
	st.Hits = t.hits.Load()
	st.Misses = t.misses.Load()
	st.PeerHits = t.peerHits.Load()
	st.PeerMisses = t.peerMisses.Load()
	st.Coalesced = t.coalesced.Load()
	st.Epoch = t.epoch
	if t.fills != nil {
		st.FillQueue = len(t.fills)
	}
	st.FillsDropped = t.fillsDropped.Load()
	for _, p := range t.peers {
		ps := p.Stats()
		st.PeerErrors += ps.PeerErrors
		st.EpochRejects += ps.EpochRejects
	}
	return st
}
