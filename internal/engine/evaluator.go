package engine

import (
	"context"
	"io"
	"sync"
)

// Evaluator is the one backend interface of the evaluation stack: a thing
// that runs batches of Jobs and reports lifetime counters. Every way of
// evaluating — a local worker pool (*Engine), the health-aware front
// over other evaluators (*Balancer, fixed or elastic), an HTTP client
// proxying to a remote art9-serve instance (internal/remote.Client) —
// implements it, so
// consumers (internal/serve, cmd/art9-batch, the art9.New facade) are
// written once against this surface and composed freely: fronts mixing
// local pools with remote peers, a serve instance fronting a fleet of
// other serve instances.
//
// The contract every backend honours:
//
//   - Run returns exactly one Result per job, index-aligned with the
//     input slice (submission order); per-job failures travel in
//     Result.Err, and the batch error is non-nil only when ctx ended
//     before the batch drained.
//   - Stream yields one Result per job in completion order, then closes.
//     The channel is buffered to len(jobs), so an abandoned stream never
//     blocks the backend. Cancelling ctx resolves outstanding jobs with
//     the context error; the channel still closes.
//   - Stats is a point-in-time snapshot of the backend's counters; a
//     Balancer aggregates its members' job counters and reports its own
//     Stream count.
//   - Close releases the backend's resources. Jobs already executing
//     finish; anything undispatched resolves with ErrClosed. Idempotent.
type Evaluator interface {
	Run(ctx context.Context, jobs []Job) ([]Result, error)
	Stream(ctx context.Context, jobs []Job) <-chan Result
	Stats() Stats
	Close() error
}

// The local backends satisfy the interface; internal/remote.Client
// asserts its own conformance next to its definition.
var (
	_ Evaluator = (*Engine)(nil)
	_ Evaluator = (*Balancer)(nil)
)

// BackendStats returns one Stats snapshot per member of a Balancer, in
// member order — queried concurrently, since a remote backend's Stats
// is a network scrape — or a single-element slice for any other
// backend. A member an elastic pool has retired reports no Workers.
func BackendStats(ev Evaluator) []Stats {
	c, ok := ev.(*Balancer)
	if !ok {
		return []Stats{ev.Stats()}
	}
	out := make([]Stats, c.Size())
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.Backend(i).Stats()
		}(i)
	}
	wg.Wait()
	for i, h := range c.Health()[:len(out)] {
		if h.Retired {
			out[i].Workers = 0
		}
	}
	return out
}

// Shards reports how many shards ev spans: a Balancer's members, local
// engines and peers together, leaving out those an elastic pool has
// retired, and 1 for any other backend.
func Shards(ev Evaluator) int {
	b, ok := ev.(*Balancer)
	if !ok {
		return 1
	}
	n := 0
	for _, h := range b.Health() {
		if !h.Retired {
			n++
		}
	}
	return n
}

// Prober is implemented by backends that can answer a cheap liveness
// check: nil means the backend is fit to take jobs, an error explains
// why it is not. Local engines answer from their closed flag; the
// remote client performs a bounded GET /v1/healthz. The Balancer's
// health loop probes every backend that implements it and treats the
// rest as always-alive (their failures still surface reactively through
// job results).
type Prober interface {
	Probe(ctx context.Context) error
}

// Every local backend carries its own liveness oracle.
var (
	_ Prober = (*Engine)(nil)
	_ Prober = (*Balancer)(nil)
)

// ChunkDispatcher is implemented by backends that can run a whole chunk
// of jobs as one dispatch unit with per-job acknowledgement — the
// capability the Balancer detects on internal/remote.Client so a chunk
// (a single job under per-job placement) travels as one acknowledged
// /v1/suite NDJSON stream.
//
// DispatchChunk resolves jobs through ack(i, result), where i indexes
// the chunk slice; ack is called at most once per index, from a single
// goroutine. A nil return means every job was acknowledged. A non-nil
// return is a chunk-level failure (the stream was severed, the peer
// unreachable): jobs not yet acknowledged received no verdict at all,
// and the caller owns re-dispatching exactly those — which is how a
// severed chunk resumes on survivors without re-running rows that
// already arrived.
type ChunkDispatcher interface {
	DispatchChunk(ctx context.Context, jobs []Job, ack func(i int, r Result)) error
}

// Capacity is a backend's point-in-time load snapshot: live pool size,
// jobs in flight, free workers, and queue depth beyond the pool. A
// chunking Balancer sizes chunks from it so a busy peer sheds load
// before it wedges — the scraped replacement for the static width hint.
type Capacity struct {
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	Free    int `json:"free"`
	Queue   int `json:"queue"`
}

// CapacityReporter is implemented by backends whose load the Balancer
// cannot count itself because it lives in another process: the remote
// client answers by scraping the peer's /v1/capacity fast path. The
// Balancer's probe round folds the answer into BackendHealth and chunk
// sizing. In-process members are not scraped: their free slots are
// their worker count minus the jobs the Balancer has in flight there.
type CapacityReporter interface {
	Capacity(ctx context.Context) (Capacity, error)
}

// CapacityFromStats derives a Capacity snapshot from lifetime counters:
// busy is the in-flight count (submitted minus every terminal verdict),
// free is the idle remainder of the pool, queue is whatever in-flight
// work exceeds it.
func CapacityFromStats(st Stats) Capacity {
	resolved := st.Completed + st.Failed + st.Canceled + st.Rejected
	busy := 0
	if st.Submitted > resolved {
		busy = int(st.Submitted - resolved)
	}
	c := Capacity{Workers: st.Workers, Busy: busy}
	if busy < st.Workers {
		c.Free = st.Workers - busy
	} else {
		c.Queue = busy - st.Workers
	}
	return c
}

// LocalCapacity snapshots ev's capacity without any network I/O — the
// view the serve layer's /v1/capacity endpoint reports, so a capacity
// scrape never blocks on a further peer.
func LocalCapacity(ev Evaluator) Capacity {
	return CapacityFromStats(LocalStats(ev))
}

// ResultCache is the dispatch-path view of the fleet-wide result cache
// (internal/rescache behind the internal/bench codec): a store of
// finished job results keyed by the job's serializable Spec. Fronts
// consult it before placing a job — a hit short-circuits dispatch
// entirely, so a hot job never occupies a worker, rides a chunk, or
// triggers a scale-up — and record successful results after execution.
//
// Both methods are best-effort by contract: Lookup answers (nil, false)
// for specs it cannot key or entries it cannot decode, and Store
// silently drops values it cannot encode. A broken or unreachable
// cache tier therefore degrades to computing, never to failing.
type ResultCache interface {
	// Lookup returns a replayable result value for the job spec, or
	// false when the fleet has not seen this work before.
	Lookup(ctx context.Context, spec any) (any, bool)
	// Store records a successful result value under the spec's key.
	Store(ctx context.Context, spec any, value any)
}

// lookupCached resolves a batch's result-cache hits before anything is
// queued, the one lookup both fronts make: up to 16 in flight (a tiered
// miss may cost a peer round-trip), none started once ctx has ended,
// then each hit resolved through hit on the calling goroutine in
// submission order. It returns the other jobs' indices, in order.
func lookupCached(ctx context.Context, c ResultCache, jobs []Job, hit func(int, Result)) []int {
	if c == nil {
		return indices(len(jobs))
	}
	misses := make([]int, 0, len(jobs))
	found := make([]bool, len(jobs))
	vals := make([]any, len(jobs))
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	for i := range jobs {
		if jobs[i].Spec == nil || ctx.Err() != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			vals[i], found[i] = c.Lookup(ctx, jobs[i].Spec)
		}(i)
	}
	wg.Wait()
	for i := range jobs {
		if found[i] {
			hit(i, Result{ID: jobs[i].ID, Value: vals[i], Worker: -1})
		} else {
			misses = append(misses, i)
		}
	}
	return misses
}

// storeCached records a successful job's value in c, best-effort; a nil
// cache or a spec-less job stores nothing. Call it outside any lock: a
// tiered cache fans the fill out to peers.
func storeCached(ctx context.Context, c ResultCache, j *Job, v any) {
	if c != nil && j.Spec != nil {
		c.Store(ctx, j.Spec, v)
	}
}

// indices returns 0, 1, ..., n-1.
func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// closeResultCache releases a result cache attached to a front, when
// it holds resources to release — a tiered store drains its queued
// write-behind peer fills here, which is what lets a short-lived batch
// run still seed the fleet before exit. Safe on nil and on caches
// without teardown; safe to call from several fronts sharing one
// adapter (the tier's own Close is idempotent).
func closeResultCache(c ResultCache) error {
	if cl, ok := c.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// ResultCacheOf returns the result cache consulted on ev's dispatch
// path: the front's own, which is where remote.NewBackendWith attaches
// it, so report builders find the tier's counters without knowing the
// topology. Nil when the front runs uncached or is not an Engine or a
// Balancer.
func ResultCacheOf(ev Evaluator) ResultCache {
	switch f := ev.(type) {
	case *Engine:
		return f.ResultCache()
	case *Balancer:
		return f.ResultCache()
	}
	return nil
}

// LocalStatser is implemented by backends whose Stats involves network
// I/O (the remote client scrapes its peer) and that can also report a
// cheap process-local view of the work submitted through them.
type LocalStatser interface {
	LocalStats() Stats
}

// LocalStats returns ev's counters without any network I/O: a
// Balancer's members are walked (its own Stream count standing in for
// the members': it hands them chunks, never streams), LocalStatser
// backends report their local view, and plain local backends answer
// Stats directly. Use it where blocking on a peer
// is unacceptable (liveness probes) or where only this process's
// submissions should be counted (per-run reports). A member an elastic
// pool has retired still counts its jobs, but not its Workers.
func LocalStats(ev Evaluator) Stats {
	if c, ok := ev.(*Balancer); ok {
		var t Stats
		for i, h := range c.Health() {
			st := LocalStats(c.Backend(i))
			if h.Retired {
				st.Workers = 0
			}
			t = t.Add(st)
		}
		t.Streams = c.Streams()
		return t
	}
	if ls, ok := ev.(LocalStatser); ok {
		return ls.LocalStats()
	}
	return ev.Stats()
}
