package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardSet partitions batches round-robin across n backends, each any
// Evaluator — a local worker pool, a remote art9-serve peer
// (internal/remote.Client), or another ShardSet, so shards compose
// recursively. It is the one seam of the scaling story: the partition
// and merge logic is identical whether a shard is a local pool or a
// remote machine. Note the bench/core helpers (AssembleCached,
// AnalyzeART9) always use the process-wide shared caches regardless of
// sharding.
type ShardSet struct {
	backends []Evaluator
	// next is the persistent round-robin cursor. Each batch starts at
	// the next shard rather than shard 0, so a resident server issuing
	// many small batches (single-job /v1/eval requests, short suites)
	// spreads them across the set instead of piling onto shard 0.
	next atomic.Uint64
}

// NewShardSet starts n local engines (n < 1 selects 1), each configured
// from opts with PrivateCaches forced on so the shards stay independent.
// The per-shard pool size is opts.Workers. Call Close when done with it.
func NewShardSet(n int, opts Options) *ShardSet {
	if n < 1 {
		n = 1
	}
	opts.PrivateCaches = true
	backends := make([]Evaluator, n)
	for i := range backends {
		backends[i] = New(opts)
	}
	return NewShardSetOf(backends...)
}

// NewShardSetOf builds a set over caller-supplied backends — local
// engines, remote clients, other shard sets, in any mix. The set takes
// ownership: Close closes every backend. An empty call selects one
// default local engine.
func NewShardSetOf(backends ...Evaluator) *ShardSet {
	if len(backends) == 0 {
		backends = []Evaluator{New(Options{PrivateCaches: true})}
	}
	return &ShardSet{backends: backends}
}

// Shards returns the number of backends in the set.
func (s *ShardSet) Shards() int { return len(s.backends) }

// Size is Shards under the Composite interface's name.
func (s *ShardSet) Size() int { return len(s.backends) }

// Backend returns shard i, for callers that need direct access (tests,
// stats drill-down).
func (s *ShardSet) Backend(i int) Evaluator { return s.backends[i] }

// Probe answers the Prober liveness check for the set: alive while at
// least one backend is, since round-robin still lands jobs on the live
// shards. Backends that do not implement Prober count as alive (their
// health is only observable through job results); when every backend
// is probeable and down, the joined errors are returned.
func (s *ShardSet) Probe(ctx context.Context) error {
	var errs []error
	for _, b := range s.backends {
		p, ok := b.(Prober)
		if !ok {
			return nil
		}
		err := p.Probe(ctx)
		if err == nil {
			return nil
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Capacity answers the CapacityReporter query from the set's local
// counters (remote shards contribute the work submitted through them,
// not a peer scrape), keeping the query I/O-free.
func (s *ShardSet) Capacity(context.Context) (Capacity, error) {
	return LocalCapacity(s), nil
}

// Close stops every backend, concurrently, and joins their errors. Each
// local shard's Close drains its own queue, so every Submit channel
// across the set resolves.
func (s *ShardSet) Close() error {
	errs := make([]error, len(s.backends))
	var wg sync.WaitGroup
	for i, b := range s.backends {
		wg.Add(1)
		go func(i int, b Evaluator) {
			defer wg.Done()
			errs[i] = b.Close()
		}(i, b)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats sums the per-backend counters into one set-wide snapshot — the
// Evaluator view of the set.
func (s *ShardSet) Stats() Stats {
	var t Stats
	for _, st := range s.ShardStats() {
		t = t.Add(st)
	}
	return t
}

// ShardStats returns one snapshot per backend, in shard order. The
// backends are queried concurrently: a remote shard's Stats is a
// network scrape, so a set with slow peers pays the slowest one, not
// the sum.
func (s *ShardSet) ShardStats() []Stats { return BackendStats(s) }

// cursor reserves n consecutive round-robin slots and returns the first.
func (s *ShardSet) cursor(n int) uint64 {
	return s.next.Add(uint64(n)) - uint64(n)
}

// split partitions jobs round-robin from the persistent cursor: job i of
// this batch goes to shard (cursor+i) mod n, which balances homogeneous
// batches of any size — including many one-job batches — without
// inspecting job contents. The second slice maps each part entry back to
// its index in jobs.
func (s *ShardSet) split(jobs []Job) ([][]Job, [][]int) {
	parts := make([][]Job, len(s.backends))
	index := make([][]int, len(s.backends))
	start := s.cursor(len(jobs))
	for i, j := range jobs {
		k := (start + uint64(i)) % uint64(len(s.backends))
		parts[k] = append(parts[k], j)
		index[k] = append(index[k], i)
	}
	return parts, index
}

// Stream fans jobs out round-robin across the backends and merges their
// completion-order streams into one channel, closed after the last
// backend's stream drains. Ordering across shards is whatever completion
// interleaving produces — the same contract as Engine.Stream.
func (s *ShardSet) Stream(ctx context.Context, jobs []Job) <-chan Result {
	out := make(chan Result, len(jobs))
	parts, _ := s.split(jobs)
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(ch <-chan Result) {
			defer wg.Done()
			for r := range ch {
				out <- r
			}
		}(s.backends[i].Stream(ctx, part))
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Run fans jobs out round-robin, runs every part on its backend
// concurrently, and reassembles the results in submission order —
// Engine.Run semantics over the set.
func (s *ShardSet) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	parts, index := s.split(jobs)
	out := make([]Result, len(jobs))
	var wg sync.WaitGroup
	for k := range parts {
		if len(parts[k]) == 0 {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rs, _ := s.backends[k].Run(ctx, parts[k])
			for i, idx := range index[k] {
				if i < len(rs) {
					out[idx] = rs[i]
					continue
				}
				// A conforming backend returns one result per job;
				// guard against a short slice so no slot stays zero.
				out[idx] = Result{ID: parts[k][i].ID, Worker: -1,
					Err: fmt.Errorf("engine: shard %d returned %d results for %d jobs", k, len(rs), len(parts[k]))}
			}
		}(k)
	}
	wg.Wait()
	return out, ctx.Err()
}
