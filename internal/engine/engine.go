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
// pushes NDJSON rows to a client the moment each job finishes.
//
// Two fronts compose engines into fleets. A Balancer places a batch, in
// chunks, on the healthiest of several backends — local engines, remote
// peers, other fronts — and re-runs the jobs of a backend that dies; an
// Autoscaler grows and shrinks a Balancer's membership with load. A
// process serves one of three shapes: a lone Engine, a Balancer over a
// fixed set of backends, or an Autoscaler (internal/remote's
// NewBackendWith builds them).
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
	// Workers is the pool size; 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// JobTimeout bounds each job's execution unless the job sets its
	// own Timeout; 0 means no per-job deadline.
	JobTimeout time.Duration
	// Queue is the depth of the buffered dispatch queue between Submit
	// and the workers; 0 selects 2×Workers. A deeper queue lets bursty
	// submitters (the HTTP suite endpoint, Stream fan-outs) hand off
	// without parking one goroutine per pending send.
	Queue int
	// Cache, when set, is consulted with each job's Spec before the
	// job is enqueued: a hit resolves the Submit immediately with the
	// cached value (Worker -1, counted as completed) and the job never
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

type task struct {
	ctx  context.Context
	job  Job
	done chan<- Result
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

	// mu orders Submit against Close: Submit registers its enqueue
	// goroutine in submitters under a read lock while closed is false,
	// so Close — which flips closed under the write lock — can wait for
	// every in-flight enqueue before sweeping the queue. Without the
	// handshake a Submit racing Close could park a task in the buffer
	// after the sweep and strand its done channel forever.
	mu         sync.RWMutex
	closed     bool
	submitters sync.WaitGroup

	// cache, when non-nil, short-circuits Submit on known Specs and
	// records successful executions — the fleet-wide result tier.
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
	q := opts.Queue
	if q <= 0 {
		q = 2 * w
	}
	e := &Engine{
		workers: w,
		timeout: opts.JobTimeout,
		jobs:    make(chan task, q),
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
// jobs at it.
func (e *Engine) Probe(context.Context) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	return nil
}

// Capacity answers the CapacityReporter query from the pool's own
// counters — no I/O, so a probe round over local backends stays cheap.
func (e *Engine) Capacity(context.Context) (Capacity, error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return Capacity{}, ErrClosed
	}
	return CapacityFromStats(e.Stats()), nil
}

// Close stops the workers. Jobs already executing finish, and workers
// drain jobs already sitting in the dispatch queue before exiting; any
// task still undispatched when the pool is gone — plus everything
// submitted afterwards — resolves with ErrClosed. Every Submit channel
// resolves exactly once; Close never strands a waiter. Idempotent. An
// attached result cache is released last (a tier drains its queued
// peer fills there), and its close verdict is the only error Close can
// return.
func (e *Engine) Close() error {
	var err error
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.quit)
		// Every registered enqueue resolves promptly now that quit is
		// closed: the send either lands in the queue or loses to the
		// quit case and rejects. Only then is the queue membership
		// final and the sweep below sound.
		e.submitters.Wait()
		e.wg.Wait()
	sweep:
		for {
			select {
			case t := <-e.jobs:
				e.rejected.Add(1)
				t.done <- Result{ID: t.job.ID, Err: ErrClosed, Worker: -1}
			default:
				break sweep
			}
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

// Submit enqueues one job and returns a channel that will receive its
// Result exactly once. Cancelling ctx before a worker picks the job up
// resolves it immediately with ctx's error.
func (e *Engine) Submit(ctx context.Context, j Job) <-chan Result {
	e.submitted.Add(1)
	done := make(chan Result, 1)
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.rejected.Add(1)
		done <- Result{ID: j.ID, Err: ErrClosed, Worker: -1}
		return done
	}
	e.submitters.Add(1)
	e.mu.RUnlock()
	go func() {
		defer e.submitters.Done()
		// Consult the result cache before the job touches the queue: a
		// hit is a finished job — no worker, no queue slot. The lookup
		// happens off the caller's goroutine because a tiered cache may
		// do a peer round-trip on a local miss.
		if e.cache != nil && j.Spec != nil {
			if v, ok := e.cache.Lookup(ctx, j.Spec); ok {
				e.completed.Add(1)
				done <- Result{ID: j.ID, Value: v, Worker: -1}
				return
			}
		}
		select {
		case e.jobs <- task{ctx: ctx, job: j, done: done}:
		case <-ctx.Done():
			e.canceled.Add(1)
			done <- Result{ID: j.ID, Err: ctx.Err(), Worker: -1}
		case <-e.quit:
			e.rejected.Add(1)
			done <- Result{ID: j.ID, Err: ErrClosed, Worker: -1}
		}
	}()
	return done
}

// Run submits every job and waits for all of them, returning results in
// submission order regardless of completion order — the Evaluator batch
// entry point. Individual job failures are reported per-result; the
// returned error is non-nil only when ctx ended before the batch
// drained.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	chans := make([]<-chan Result, len(jobs))
	for i, j := range jobs {
		chans[i] = e.Submit(ctx, j)
	}
	out := make([]Result, len(jobs))
	for i, ch := range chans {
		out[i] = <-ch
	}
	return out, ctx.Err()
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
			t.done <- e.execute(id, t)
			continue
		default:
		}
		select {
		case t := <-e.jobs:
			t.done <- e.execute(id, t)
		case <-e.quit:
			return
		}
	}
}

func (e *Engine) execute(worker int, t task) Result {
	r := Result{ID: t.job.ID, Worker: worker}
	if err := t.ctx.Err(); err != nil {
		e.canceled.Add(1)
		r.Err = err
		r.Worker = -1
		return r
	}
	ctx := t.ctx
	timeout := t.job.Timeout
	if timeout <= 0 {
		timeout = e.timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	r.Value, r.Err = t.job.Fn(ctx)
	r.Elapsed = time.Since(start)
	// A deadline the engine itself imposed surfaces as the typed
	// ErrTimeout; a deadline or cancellation that was already on the
	// caller's context stays the caller's error.
	if timeout > 0 && errors.Is(r.Err, context.DeadlineExceeded) && t.ctx.Err() == nil {
		r.Err = fmt.Errorf("%w after %v: %w", ErrTimeout, timeout, r.Err)
	}
	if r.Err != nil {
		e.failed.Add(1)
	} else {
		e.completed.Add(1)
		if e.cache != nil && t.job.Spec != nil {
			e.cache.Store(t.ctx, t.job.Spec, r.Value)
		}
	}
	return r
}
