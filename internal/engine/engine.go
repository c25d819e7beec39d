// Package engine is the concurrent batch-evaluation subsystem: a
// worker-pool job runner that fans the paper's §V evaluation matrix
// (workload × core model × technology) out across GOMAXPROCS workers,
// plus memoization caches for the two expensive pure computations of the
// pipeline — assembling ART-9 programs and gate-level analysis — so
// repeated evaluations are near-free.
//
// The engine is deliberately generic: a Job is a closure, so the higher
// layers (internal/bench, internal/core, internal/serve, cmd/art9-batch)
// can submit any unit of work without this package depending on them.
// Run returns results in submission order, which is how the
// concurrent suite reproduces the serial tables byte for byte; Stream
// delivers them in completion order, which is how the evaluation server
// pushes NDJSON rows to a client the moment each job finishes. Both feed
// a whole batch to the workers from one goroutine, not one per job.
//
// One front composes engines into fleets. A Balancer places a batch, in
// chunks, on the healthiest of several backends — local engines, remote
// peers, other fronts — and re-runs the jobs of a backend that dies.
// NewAutoscaler builds an elastic one: an Autoscaler policy attached to
// the Balancer grows and shrinks its membership with load, beside any
// fixed members. A process serves one of two shapes: a lone Engine or a
// Balancer (internal/remote's NewBackendWith builds them).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned for jobs submitted to a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrUnavailable marks a backend-level failure: the backend could not
// carry the job at all — a peer was unreachable, a result stream was
// severed mid-suite — as opposed to the job itself running and failing.
// Backends wrap transport-class errors with it (internal/remote does for
// dial failures, severed NDJSON streams and truncated responses) so a
// Balancer can tell "re-run this job elsewhere" from "this job is bad".
var ErrUnavailable = errors.New("engine: backend unavailable")

// ErrTimeout wraps a job failure caused by the per-job timeout (the
// job's own Timeout or the engine's JobTimeout) expiring while the job
// ran. A deadline or cancellation that arrived on the caller's context
// is reported as that context's error instead.
var ErrTimeout = errors.New("engine: job timeout")

// Options configure an Engine.
type Options struct {
	// Workers is the pool size; 0 selects runtime.GOMAXPROCS(0). The
	// dispatch queue in front of the workers holds 2×Workers jobs.
	Workers int
	// JobTimeout bounds each job's execution unless the job sets its
	// own Timeout; 0 means no per-job deadline.
	JobTimeout time.Duration
	// Cache, when set, is consulted with each job's Spec before the
	// batch is queued: a hit resolves the job at once with the cached
	// value (Worker -1, counted as completed) and the job never
	// occupies a worker. Successful executions are stored back. Jobs
	// without a Spec bypass the cache entirely.
	Cache ResultCache
}

// Job is one unit of evaluation work.
type Job struct {
	// ID labels the job in its Result (e.g. the workload name).
	ID string
	// Timeout overrides the engine's JobTimeout for this job.
	Timeout time.Duration
	// Fn does the work. It should honour ctx cancellation where it
	// can; the engine always checks ctx before dispatching.
	Fn func(ctx context.Context) (any, error)
	// Spec optionally carries a serializable description of the work
	// (e.g. a *bench.JobSpec) so backends that cannot ship closures —
	// the internal/remote HTTP client — can re-create the job on a
	// peer. Local backends ignore it.
	Spec any
}

// Result is the outcome of one job.
type Result struct {
	ID      string
	Value   any
	Err     error
	Elapsed time.Duration
	// Worker is the pool index that executed the job (-1 if the job
	// was cancelled before dispatch or answered by the result cache).
	Worker int
}

// Stats are the engine's lifetime counters. Every submitted job ends in
// exactly one of Completed, Failed (its Fn ran and returned an error,
// including a per-job timeout the Fn honoured), Canceled (its context
// ended before the Fn ran), or Rejected (the engine closed first), so
// Submitted - (Completed+Failed+Canceled+Rejected) is the in-flight
// count.
type Stats struct {
	Workers   int    `json:"workers"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	// Streams counts Stream calls started on this engine.
	Streams uint64 `json:"streams"`
}

// Add accumulates another engine's counters into s, summing every job
// counter and the pool sizes — how a composite front reports fleet-wide
// totals.
func (s Stats) Add(o Stats) Stats {
	s.Workers += o.Workers
	s.Submitted += o.Submitted
	s.Completed += o.Completed
	s.Failed += o.Failed
	s.Canceled += o.Canceled
	s.Rejected += o.Rejected
	s.Streams += o.Streams
	return s
}

// batch is one Run or Stream call in flight: each job resolves once,
// through resolve, and the last resolution calls finish.
type batch struct {
	ctx     context.Context
	jobs    []Job
	emit    func(i int, r Result)
	finish  func()
	pending atomic.Int64
}

func (b *batch) resolve(i int, r Result) {
	b.emit(i, r)
	if b.pending.Add(-1) == 0 {
		b.finish()
	}
}

// fail resolves the jobs at idx, which no worker ran, with err and
// counts them in n (Canceled or Rejected).
func (b *batch) fail(idx []int, err error, n *atomic.Uint64) {
	n.Add(uint64(len(idx)))
	for _, i := range idx {
		b.resolve(i, Result{ID: b.jobs[i].ID, Err: err, Worker: -1})
	}
}

// task is one queued job: its index in the batch that carries it.
type task struct {
	b *batch
	i int
}

// Engine is a fixed-size worker pool with a buffered dispatch queue and
// submission-order (Run) and completion-order (Stream) result
// collection. The memoization caches its jobs use are the process-wide
// SharedPrograms and SharedAnalyses.
type Engine struct {
	workers int
	timeout time.Duration
	jobs    chan task
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// mu orders a batch's dispatch against Close: dispatch registers
	// the batch in submitters under a read lock while closed is false,
	// so Close — which flips closed under the write lock — can wait for
	// every batch still feeding the queue before sweeping it. Without
	// the handshake a batch racing Close could park a task in the
	// buffer after the sweep and strand its job forever.
	mu         sync.RWMutex
	closed     bool
	submitters sync.WaitGroup

	// cache, when non-nil, answers known Specs before they are queued
	// and records successful executions — the fleet-wide result tier.
	cache ResultCache

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	rejected  atomic.Uint64
	streams   atomic.Uint64
}

// New starts a worker pool. Call Close when done with it.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: w,
		timeout: opts.JobTimeout,
		jobs:    make(chan task, 2*w),
		quit:    make(chan struct{}),
		cache:   opts.Cache,
	}
	e.wg.Add(w)
	for i := 0; i < w; i++ {
		go e.worker(i)
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// ResultCache returns the result-cache tier consulted on this pool's
// dispatch path, or nil when the pool runs uncached.
func (e *Engine) ResultCache() ResultCache { return e.cache }

// Probe answers the Prober liveness check locally: a running pool is
// healthy, a closed one reports ErrClosed so a Balancer stops routing
// jobs at it. A probe round is also what revives a running pool that a
// job's own ErrUnavailable or ErrClosed error marked down.
func (e *Engine) Probe(context.Context) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	return nil
}

// Close stops the workers. Jobs already executing finish, and workers
// drain jobs already sitting in the dispatch queue before exiting; any
// job still unfed or undispatched when the pool is gone — plus
// everything submitted afterwards — resolves with ErrClosed. Every job
// resolves exactly once; Close never strands a Run or a Stream.
// Idempotent. An attached result cache is released last (a tier drains
// its queued peer fills there), and its close verdict is the only error
// Close can return.
func (e *Engine) Close() error {
	var err error
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.quit)
		// Every registered batch stops feeding promptly now that quit
		// is closed: its next send either lands in the queue or loses
		// to the quit case, which rejects the rest of the batch. Only
		// then is the queue membership final and the sweep below sound.
		e.submitters.Wait()
		e.wg.Wait()
		for len(e.jobs) > 0 {
			t := <-e.jobs
			t.b.fail([]int{t.i}, ErrClosed, &e.rejected)
		}
		err = closeResultCache(e.cache)
	})
	return err
}

// Stats returns a snapshot of the lifetime counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:   e.workers,
		Submitted: e.submitted.Load(),
		Completed: e.completed.Load(),
		Failed:    e.failed.Load(),
		Canceled:  e.canceled.Load(),
		Rejected:  e.rejected.Load(),
		Streams:   e.streams.Load(),
	}
}

// Run dispatches every job and waits for all of them, returning results
// in submission order regardless of completion order — the Evaluator
// batch entry point. Individual job failures are reported per-result;
// the returned error is non-nil only when ctx ended before the batch
// drained.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	out := make([]Result, len(jobs))
	done := make(chan struct{})
	e.dispatch(ctx, jobs, func(i int, r Result) { out[i] = r }, func() { close(done) })
	<-done
	return out, ctx.Err()
}

// Stream dispatches like Run but yields each result the moment its job
// resolves, in completion order, on a channel buffered to len(jobs) that
// closes after the last one — the Evaluator contract. The batch feeds
// the workers from a goroutine of its own, so Stream never blocks.
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan Result {
	e.streams.Add(1)
	out := make(chan Result, len(jobs))
	go e.dispatch(ctx, jobs, func(_ int, r Result) { out <- r }, func() { close(out) })
	return out
}

// dispatch resolves every job of one batch exactly once through emit,
// then calls finish. It registers the batch with Close, resolves cache
// hits (lookupCached), and feeds the misses to the workers in order from
// the calling goroutine, which resolves any job still unfed when ctx
// ends (Canceled) or Close begins (Rejected); workers resolve the rest.
// Keep its frame small: Stream's goroutine starts on a small stack, and
// at 0x1d0 bytes of locals every Stream grew it, 2.5 µs a call.
func (e *Engine) dispatch(ctx context.Context, jobs []Job, emit func(int, Result), finish func()) {
	if len(jobs) == 0 {
		finish()
		return
	}
	b := &batch{ctx: ctx, jobs: jobs, emit: emit, finish: finish}
	b.pending.Store(int64(len(jobs)))
	e.submitted.Add(uint64(len(jobs)))
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		b.fail(indices(len(jobs)), ErrClosed, &e.rejected)
		return
	}
	e.submitters.Add(1)
	e.mu.RUnlock()
	defer e.submitters.Done()

	misses := lookupCached(ctx, e.cache, jobs, func(i int, r Result) {
		e.completed.Add(1)
		b.resolve(i, r)
	})
	for k, i := range misses {
		// Bias the feed toward the queue, as the workers are: a job
		// that finds room stays queued even if ctx ends or Close begins
		// (a worker resolves it), and needs no ctx.Done channel.
		select {
		case e.jobs <- task{b: b, i: i}:
			continue
		default:
		}
		select {
		case e.jobs <- task{b: b, i: i}:
			continue
		case <-ctx.Done():
			b.fail(misses[k:], ctx.Err(), &e.canceled)
		case <-e.quit:
			b.fail(misses[k:], ErrClosed, &e.rejected)
		}
		return
	}
}

func (e *Engine) worker(id int) {
	defer e.wg.Done()
	for {
		// Bias dispatch toward the queue: a two-way select with both
		// cases ready picks at random, so a worker racing Close could
		// take quit and abandon a job that was accepted before
		// shutdown began. Draining ready work first means quit is only
		// honoured when the queue is (momentarily) empty.
		select {
		case t := <-e.jobs:
			t.b.resolve(t.i, e.execute(id, t))
			continue
		default:
		}
		select {
		case t := <-e.jobs:
			t.b.resolve(t.i, e.execute(id, t))
		case <-e.quit:
			return
		}
	}
}

func (e *Engine) execute(worker int, t task) Result {
	j := &t.b.jobs[t.i]
	r := Result{ID: j.ID, Worker: worker}
	if err := t.b.ctx.Err(); err != nil {
		e.canceled.Add(1)
		r.Err = err
		r.Worker = -1
		return r
	}
	ctx := t.b.ctx
	timeout := j.Timeout
	if timeout <= 0 {
		timeout = e.timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	r.Value, r.Err = j.Fn(ctx)
	r.Elapsed = time.Since(start)
	// A deadline the engine itself imposed surfaces as the typed
	// ErrTimeout; a deadline or cancellation that was already on the
	// caller's context stays the caller's error.
	if timeout > 0 && errors.Is(r.Err, context.DeadlineExceeded) && t.b.ctx.Err() == nil {
		r.Err = fmt.Errorf("%w after %v: %w", ErrTimeout, timeout, r.Err)
	}
	if r.Err != nil {
		e.failed.Add(1)
	} else {
		e.completed.Add(1)
		storeCached(t.b.ctx, e.cache, j, r.Value)
	}
	return r
}
