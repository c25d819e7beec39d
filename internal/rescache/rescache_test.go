package rescache

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyOfBoundaries(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("length-prefixed parts must not collide across boundaries")
	}
	if KeyOf("x") != KeyOf("x") {
		t.Fatal("KeyOf must be deterministic")
	}
}

func TestLRUHitMissAndStats(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(0, 0)
	if _, ok := c.Get(ctx, "k"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(ctx, "k", []byte("v"))
	v, ok := c.Get(ctx, "k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v; want v, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != int64(len("k")+len("v")) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	if st.MaxBytes != DefaultMaxBytes {
		t.Fatalf("maxBytes = %d, want default", st.MaxBytes)
	}
}

func TestLRUEvictsColdEntriesByBytes(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(64, -1)
	for i := 0; i < 8; i++ {
		c.Put(ctx, fmt.Sprintf("key-%d", i), make([]byte, 10))
	}
	st := c.Stats()
	if st.Bytes > 64 {
		t.Fatalf("bytes = %d exceeds bound", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under byte pressure")
	}
	// The most recent entry must survive; the coldest must be gone.
	if _, ok := c.Get(ctx, "key-7"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Get(ctx, "key-0"); ok {
		t.Fatal("coldest entry survived")
	}
}

func TestLRUEvictsByEntryCountAndRecency(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(-1, 2)
	c.Put(ctx, "a", []byte("1"))
	c.Put(ctx, "b", []byte("2"))
	c.Get(ctx, "a") // refresh a: b is now coldest
	c.Put(ctx, "c", []byte("3"))
	if _, ok := c.Get(ctx, "b"); ok {
		t.Fatal("coldest entry b survived")
	}
	if _, ok := c.Get(ctx, "a"); !ok {
		t.Fatal("refreshed entry a evicted")
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUOversizedValueRefused(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(8, 0)
	c.Put(ctx, "big", make([]byte, 64))
	if st := c.Stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("oversized value was stored: %+v", st)
	}
	// A value that fits exactly is kept even though it is the only one.
	c.Put(ctx, "k", make([]byte, 7))
	if _, ok := c.Get(ctx, "k"); !ok {
		t.Fatal("exact-fit value refused")
	}
}

func TestLRUReplaceAdjustsBytes(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(0, 0)
	c.Put(ctx, "k", make([]byte, 100))
	c.Put(ctx, "k", make([]byte, 10))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != int64(len("k")+10) {
		t.Fatalf("stats after replace = %+v", st)
	}
}

// countingCache records Get calls so tests can observe coalescing, and
// can be gated to hold lookups open.
type countingCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets atomic.Int64
	gate chan struct{} // when non-nil, Get blocks until closed
	errs uint64
}

func newCountingCache() *countingCache {
	return &countingCache{m: map[string][]byte{}}
}

func (c *countingCache) Get(ctx context.Context, key string) ([]byte, bool) {
	c.gets.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *countingCache) Put(ctx context.Context, key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

func (c *countingCache) Stats() Stats { return Stats{PeerErrors: c.errs} }

// get reads the backing map under the lock — for asserting on fills
// delivered by the write-behind worker.
func (c *countingCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func TestTieredPeerHitFillsLocal(t *testing.T) {
	ctx := context.Background()
	peer := newCountingCache()
	peer.Put(ctx, "k", []byte("v"))
	local := NewLRU(0, 0)
	tier := NewTieredWith(TieredConfig{Local: local, Peers: []Cache{peer}})

	v, ok := tier.Get(ctx, "k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := local.Get(ctx, "k"); !ok {
		t.Fatal("peer hit not filled into local store")
	}
	st := tier.Stats()
	if st.Hits != 1 || st.PeerHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Second lookup answers locally: no extra peer round-trip.
	tier.Get(ctx, "k")
	if got := peer.gets.Load(); got != 1 {
		t.Fatalf("peer gets = %d, want 1", got)
	}
}

func TestTieredMissCountsOnce(t *testing.T) {
	ctx := context.Background()
	tier := NewTieredWith(TieredConfig{Local: NewLRU(0, 0), Peers: []Cache{newCountingCache()}})
	if _, ok := tier.Get(ctx, "absent"); ok {
		t.Fatal("hit on absent key")
	}
	st := tier.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.PeerMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTieredPutFansOutToPeers(t *testing.T) {
	// Peer fills are write-behind: the contract is that they have
	// landed once Close's drain returns, not synchronously with Put.
	ctx := context.Background()
	p1, p2 := newCountingCache(), newCountingCache()
	tier := NewTieredWith(TieredConfig{Local: NewLRU(0, 0), Peers: []Cache{p1, p2}})
	tier.Put(ctx, "k", []byte("v"))
	if err := tier.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, p := range []*countingCache{p1, p2} {
		if v, ok := p.get("k"); !ok || string(v) != "v" {
			t.Fatalf("peer %d not filled after drain", i+1)
		}
	}
	if err := tier.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Put after Close must not panic; the peer fill is dropped.
	tier.Put(ctx, "late", []byte("x"))
	if _, ok := p1.get("late"); ok {
		t.Fatal("fill delivered after Close")
	}
}

func TestTieredSingleflightCoalesces(t *testing.T) {
	ctx := context.Background()
	peer := newCountingCache()
	peer.m["k"] = []byte("v")
	peer.gate = make(chan struct{})
	tier := NewTieredWith(TieredConfig{Local: NewLRU(0, 0), Peers: []Cache{peer}})

	const n = 8
	var wg sync.WaitGroup
	results := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = tier.Get(ctx, "k")
		}(i)
	}
	// Wait until one flight holds the gated peer and every other
	// lookup has registered as a waiter, then release the gate.
	for peer.gets.Load() == 0 || tier.Stats().Coalesced != n-1 {
		runtime.Gosched()
	}
	close(peer.gate)
	wg.Wait()

	for i, ok := range results {
		if !ok {
			t.Fatalf("lookup %d missed", i)
		}
	}
	if got := peer.gets.Load(); got != 1 {
		t.Fatalf("peer gets = %d, want 1 (singleflight)", got)
	}
	if st := tier.Stats(); st.Coalesced == 0 {
		t.Fatalf("no coalesced lookups recorded: %+v", st)
	}
}

func TestTieredStatsSumsPeerErrors(t *testing.T) {
	p1, p2 := newCountingCache(), newCountingCache()
	p1.errs, p2.errs = 2, 3
	tier := NewTieredWith(TieredConfig{Local: NewLRU(0, 0), Peers: []Cache{p1, p2}})
	if st := tier.Stats(); st.PeerErrors != 5 {
		t.Fatalf("peer errors = %d, want 5", st.PeerErrors)
	}
}

func TestLRUDelete(t *testing.T) {
	ctx := context.Background()
	c := NewLRU(0, 0)
	c.Put(ctx, "k", []byte("v"))
	c.Delete(ctx, "k")
	if _, ok := c.Get(ctx, "k"); ok {
		t.Fatal("deleted entry still present")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Fatalf("stats after delete = %+v", st)
	}
	c.Delete(ctx, "absent") // must be a no-op, not a panic
}

// epochedCache wraps countingCache with a fixed epoch, standing in for
// a /v1/cache client whose server runs a different generation.
type epochedCache struct {
	*countingCache
	epoch uint64
}

func (c *epochedCache) Epoch() uint64 { return c.epoch }

func TestTieredSkipsEpochMismatchedPeers(t *testing.T) {
	ctx := context.Background()
	stale := &epochedCache{countingCache: newCountingCache(), epoch: 1}
	stale.m["k"] = []byte("stale")
	fresh := &epochedCache{countingCache: newCountingCache(), epoch: 2}
	fresh.m["k"] = []byte("fresh")
	tier := NewTieredWith(TieredConfig{
		Local: NewLRU(0, 0),
		Peers: []Cache{stale, fresh},
		Epoch: 2,
	})
	defer tier.Close()

	v, ok := tier.Get(ctx, "k")
	if !ok || string(v) != "fresh" {
		t.Fatalf("Get = %q, %v; want fresh hit past the stale peer", v, ok)
	}
	if stale.gets.Load() != 0 {
		t.Fatal("epoch-mismatched peer was queried")
	}
	if st := tier.Stats(); st.EpochRejects == 0 || st.Epoch != 2 {
		t.Fatalf("stats = %+v; want EpochRejects > 0, Epoch 2", st)
	}

	// Fills skip the mismatched peer too.
	tier.Put(ctx, "new", []byte("v"))
	if err := tier.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := stale.get("new"); ok {
		t.Fatal("fill delivered to epoch-mismatched peer")
	}
	if _, ok := fresh.get("new"); !ok {
		t.Fatal("fill not delivered to same-epoch peer")
	}
}

// batchCache records PutBatch calls to prove the worker prefers the
// batched path over per-entry Puts.
type batchCache struct {
	*countingCache
	batches atomic.Int64
	puts    atomic.Int64
}

func (c *batchCache) Put(ctx context.Context, key string, val []byte) {
	c.puts.Add(1)
	c.countingCache.Put(ctx, key, val)
}

func (c *batchCache) PutBatch(ctx context.Context, entries []Entry) {
	c.batches.Add(1)
	for _, e := range entries {
		c.countingCache.Put(ctx, e.Key, e.Val)
	}
}

func TestTieredFillWorkerBatches(t *testing.T) {
	ctx := context.Background()
	peer := &batchCache{countingCache: newCountingCache()}
	tier := NewTieredWith(TieredConfig{Local: NewLRU(0, 0), Peers: []Cache{peer}})
	const n = 32
	for i := 0; i < n; i++ {
		tier.Put(ctx, fmt.Sprintf("k%d", i), []byte("v"))
	}
	if err := tier.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, ok := peer.get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("entry k%d not delivered", i)
		}
	}
	if peer.puts.Load() != 0 {
		t.Fatalf("worker used %d per-entry Puts on a BatchFiller", peer.puts.Load())
	}
	if b := peer.batches.Load(); b < 1 || b > n {
		t.Fatalf("batches = %d", b)
	}
}

func TestTieredFullQueueDropsNotBlocks(t *testing.T) {
	ctx := context.Background()
	// Hold the worker inside a peer Put so the queue stays occupied.
	blocking := &gatedPutCache{countingCache: newCountingCache(), gate: make(chan struct{})}
	tier := NewTieredWith(TieredConfig{
		Local:     NewLRU(0, 0),
		Peers:     []Cache{blocking},
		FillQueue: 1,
		FillBatch: 1,
	})
	// First put: worker picks it up and blocks in the peer's Put.
	tier.Put(ctx, "a", []byte("1"))
	for blocking.started.Load() == 0 {
		runtime.Gosched()
	}
	// Second put fills the 1-slot queue; third must drop, not block.
	tier.Put(ctx, "b", []byte("2"))
	tier.Put(ctx, "c", []byte("3"))
	if st := tier.Stats(); st.FillsDropped == 0 {
		t.Fatalf("expected a dropped fill, stats = %+v", st)
	}
	close(blocking.gate)
	if err := tier.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// gatedPutCache blocks Put until its gate closes, standing in for an
// unreachable peer the write-behind worker is stuck on.
type gatedPutCache struct {
	*countingCache
	gate    chan struct{}
	started atomic.Int64
}

func (c *gatedPutCache) Put(ctx context.Context, key string, val []byte) {
	c.started.Add(1)
	select {
	case <-c.gate:
	case <-ctx.Done():
		return
	}
	c.countingCache.Put(ctx, key, val)
}

func TestTieredCloseDrainDeadline(t *testing.T) {
	ctx := context.Background()
	stuck := &gatedPutCache{countingCache: newCountingCache(), gate: make(chan struct{})}
	defer close(stuck.gate)
	tier := NewTieredWith(TieredConfig{
		Local:        NewLRU(0, 0),
		Peers:        []Cache{stuck},
		FillBatch:    1,
		DrainTimeout: 50 * time.Millisecond,
	})
	tier.Put(ctx, "a", []byte("1"))
	tier.Put(ctx, "b", []byte("2"))
	done := make(chan error, 1)
	go func() { done <- tier.Close() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Close returned nil despite a stuck peer; want drain-deadline error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked past the drain deadline")
	}
	if st := tier.Stats(); st.FillsDropped == 0 {
		t.Fatalf("cut-off drain recorded no dropped fills: %+v", st)
	}
}
