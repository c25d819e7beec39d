// Package faulttest provides a scriptable faulty Evaluator for
// fault-injection tests across the evaluation stack. A Flaky backend
// executes jobs inline (one at a time, in submission order, like a
// one-worker pool) until its script trips: it can die after N jobs,
// stall from the Nth job until released or cancelled, delay every job
// (a slow peer), or be killed and revived from the test at any point.
// It implements engine.Evaluator and engine.Prober, so the same faults
// drive Balancer failover tests and serve-layer suite tests without any
// of them spawning real processes.
package faulttest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// Flaky is the scriptable faulty backend. Configure it with the chained
// setters before submitting work; Kill/Revive/Release may be called at
// any time.
type Flaky struct {
	name string

	mu       sync.Mutex
	admitted int // jobs that passed the script gate (sequence numbers)
	executed int // jobs whose Fn actually ran
	dead     bool
	deadErr  error
	failAt   int // die when executed reaches this (<0: never)
	stallAt  int // stall jobs from this sequence number on (<0: never)
	delay    time.Duration
	workers  int
	release  chan struct{}
	probeErr error // scripted probe verdict while alive

	submitted uint64
	completed uint64
	failed    uint64
	canceled  uint64
	rejected  uint64
	streams   uint64
}

var (
	_ engine.Evaluator = (*Flaky)(nil)
	_ engine.Prober    = (*Flaky)(nil)
)

// New returns a healthy Flaky backend named name (the name shows up in
// Balancer health reports). Without any script it behaves as a correct
// sequential one-worker evaluator.
func New(name string) *Flaky {
	return &Flaky{
		name:    name,
		failAt:  -1,
		stallAt: -1,
		workers: 1,
		release: make(chan struct{}),
	}
}

// Name labels the backend in health reports.
func (f *Flaky) Name() string { return f.name }

// FailAfter scripts death: the first n jobs execute normally, then the
// backend dies and every later job resolves with err (nil selects an
// engine.ErrUnavailable-wrapped default, the transport-failure class a
// Balancer retries). FailAfter(0, nil) is dead on arrival.
func (f *Flaky) FailAfter(n int, err error) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = n
	f.deadErr = err
	return f
}

// StallAfter scripts a wedge: jobs from sequence number n on (0-based)
// block until the caller's context ends or Release is called.
// StallAfter(0) stalls every job.
func (f *Flaky) StallAfter(n int) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stallAt = n
	return f
}

// Delay makes every executed job take at least d — a slow-but-correct
// peer.
func (f *Flaky) Delay(d time.Duration) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
	return f
}

// Width sets the Workers field of the backend's Stats (the Balancer
// reads it as the dispatch-width hint). Execution stays sequential.
func (f *Flaky) Width(n int) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.workers = n
	return f
}

// ProbeSick scripts the probe verdict while the backend is otherwise
// alive: Probe reports err although jobs still execute as scripted — a
// wedged-but-connected backend (network partition, stopped process)
// whose failure is only visible to health checks. ProbeSick(nil)
// restores the healthy verdict.
func (f *Flaky) ProbeSick(err error) *Flaky {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.probeErr = err
	return f
}

// Kill downs the backend now: every subsequent job resolves with err
// (nil selects the ErrUnavailable-wrapped default) and Probe reports it.
func (f *Flaky) Kill(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = true
	if err != nil {
		f.deadErr = err
	}
}

// Revive brings a dead backend back: jobs execute again and Probe
// passes. The executed count (and any FailAfter trigger) is reset.
func (f *Flaky) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = false
	f.admitted = 0
	f.executed = 0
}

// Release unblocks every job currently stalled (and disables stalling
// for future jobs).
func (f *Flaky) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stallAt = -1
	close(f.release)
	f.release = make(chan struct{})
}

// Executed reports how many jobs actually ran (their Fn was called).
func (f *Flaky) Executed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.executed
}

// Probe reports the scripted liveness: nil while alive, the death error
// once dead — what a Balancer's health loop sees.
func (f *Flaky) Probe(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return f.deathErrLocked()
	}
	return f.probeErr
}

// Run executes the batch sequentially, in submission order, applying
// the script to each job — engine.Evaluator Run semantics.
func (f *Flaky) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		out[i] = f.one(ctx, j)
	}
	return out, ctx.Err()
}

// Stream executes sequentially like Run, emitting each result as it
// resolves. The channel is buffered to len(jobs) and always closes.
func (f *Flaky) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	f.mu.Lock()
	f.streams++
	f.mu.Unlock()
	out := make(chan engine.Result, len(jobs))
	go func() {
		defer close(out)
		for _, j := range jobs {
			out <- f.one(ctx, j)
		}
	}()
	return out
}

// Stats reports the backend's counters; Workers carries the scripted
// width.
func (f *Flaky) Stats() engine.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return engine.Stats{
		Workers:   f.workers,
		Submitted: f.submitted,
		Completed: f.completed,
		Failed:    f.failed,
		Canceled:  f.canceled,
		Rejected:  f.rejected,
		Streams:   f.streams,
	}
}

// Close kills the backend with engine.ErrClosed. Idempotent.
func (f *Flaky) Close() error {
	f.Kill(engine.ErrClosed)
	return nil
}

// one applies the script to a single job and resolves it exactly once.
func (f *Flaky) one(ctx context.Context, j engine.Job) engine.Result {
	f.mu.Lock()
	f.submitted++
	if f.dead {
		err := f.deathErrLocked()
		f.rejected++
		f.mu.Unlock()
		return engine.Result{ID: j.ID, Err: err, Worker: -1}
	}
	seq := f.admitted
	if f.failAt >= 0 && seq >= f.failAt {
		f.dead = true
		err := f.deathErrLocked()
		f.rejected++
		f.mu.Unlock()
		return engine.Result{ID: j.ID, Err: err, Worker: -1}
	}
	f.admitted++
	stall := f.stallAt >= 0 && seq >= f.stallAt
	release := f.release
	delay := f.delay
	f.mu.Unlock()

	if stall {
		select {
		case <-ctx.Done():
			f.mu.Lock()
			f.canceled++
			f.mu.Unlock()
			return engine.Result{ID: j.ID, Err: ctx.Err(), Worker: -1}
		case <-release:
		}
	}
	if delay > 0 {
		select {
		case <-ctx.Done():
			f.mu.Lock()
			f.canceled++
			f.mu.Unlock()
			return engine.Result{ID: j.ID, Err: ctx.Err(), Worker: -1}
		case <-time.After(delay):
		}
	}
	if err := ctx.Err(); err != nil {
		f.mu.Lock()
		f.canceled++
		f.mu.Unlock()
		return engine.Result{ID: j.ID, Err: err, Worker: -1}
	}

	start := time.Now()
	v, err := j.Fn(ctx)
	r := engine.Result{ID: j.ID, Value: v, Err: err, Elapsed: time.Since(start), Worker: 0}
	f.mu.Lock()
	f.executed++
	if err != nil {
		f.failed++
	} else {
		f.completed++
	}
	f.mu.Unlock()
	return r
}

// deathErrLocked renders the configured (or default) death error;
// callers hold f.mu.
func (f *Flaky) deathErrLocked() error {
	if f.deadErr != nil {
		return f.deadErr
	}
	return fmt.Errorf("faulttest %s: scripted death: %w", f.name, engine.ErrUnavailable)
}
