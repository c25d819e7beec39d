package engine_test

// The fault-injection suite of the health-aware Balancer: every
// scenario drives scripted faulttest backends (dying mid-stream,
// all-down, slow, wedged) and asserts the property the balancer exists
// for — the merged result set of a faulty fleet is identical to a
// healthy single-engine run, resolved exactly once per job, within a
// bounded retry budget. Job sets, result rendering and the healthy
// reference come from the shared scenariotest harness — which also runs
// the full topology × fault matrix — leaving this file the
// balancer-specific property tests. Run under -race in CI, twice
// (-count=2).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/faulttest"
	"repro/internal/engine/scenariotest"
)

func newBalancer(t *testing.T, opts engine.BalancerOptions, backends ...engine.Evaluator) *engine.Balancer {
	t.Helper()
	if opts.HealthInterval == 0 {
		opts.HealthInterval = -1 // deterministic: probe only via ProbeNow
	}
	b := engine.NewBalancer(opts, backends...)
	t.Cleanup(func() { b.Close() })
	return b
}

// TestBalancerHealthyMatchesSingleEngine pins the no-fault baseline:
// balanced dispatch over two live backends yields exactly the healthy
// single-engine result set, via both Run and Stream.
func TestBalancerHealthyMatchesSingleEngine(t *testing.T) {
	const n = 12
	want := scenariotest.Reference(t, scenariotest.Jobs(n))

	b := newBalancer(t, engine.BalancerOptions{},
		engine.New(engine.Options{Workers: 2}),
		engine.New(engine.Options{Workers: 2}))

	rs, err := b.Run(context.Background(), scenariotest.Jobs(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := scenariotest.Render(t, rs); got != want {
		t.Errorf("Run result set diverged from healthy single engine:\ngot:\n%s\nwant:\n%s", got, want)
	}

	var streamed []engine.Result
	for r := range b.Stream(context.Background(), scenariotest.Jobs(n)) {
		streamed = append(streamed, r)
	}
	if got := scenariotest.Render(t, streamed); got != want {
		t.Errorf("Stream result set diverged from healthy single engine:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBalancerFailoverBackendDiesMidSuite is the headline scenario: one
// of two backends executes a couple of jobs and dies mid-suite; the
// suite must still resolve completely, deduplicated, identical to a
// healthy run, and the balancer must record the failovers.
func TestBalancerFailoverBackendDiesMidSuite(t *testing.T) {
	const n = 16
	want := scenariotest.Reference(t, scenariotest.Jobs(n))

	for _, mode := range []string{"run", "stream"} {
		t.Run(mode, func(t *testing.T) {
			// Width 2 guarantees the initial dispatch burst hands the
			// dying backend two jobs — one executes, the second trips
			// the scripted death mid-suite under any scheduling — and
			// the 10ms job body keeps dispatch rounds stable so the
			// death lands while most of the suite is still pending.
			flaky := faulttest.New("dying-peer").Width(2).FailAfter(1, nil)
			b := newBalancer(t, engine.BalancerOptions{},
				flaky,
				engine.New(engine.Options{Workers: 2}))

			var rs []engine.Result
			if mode == "run" {
				var err error
				rs, err = b.Run(context.Background(), scenariotest.SlowJobs(n, 10*time.Millisecond))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				for r := range b.Stream(context.Background(), scenariotest.SlowJobs(n, 10*time.Millisecond)) {
					rs = append(rs, r)
				}
			}

			if len(rs) != n {
				t.Fatalf("resolved %d results for %d jobs", len(rs), n)
			}
			seen := map[string]int{}
			for _, r := range rs {
				seen[r.ID]++
			}
			for id, c := range seen {
				if c != 1 {
					t.Errorf("job %s resolved %d times, want exactly once", id, c)
				}
			}
			if got := scenariotest.Render(t, rs); got != want {
				t.Errorf("faulty-fleet result set diverged from healthy run:\ngot:\n%s\nwant:\n%s", got, want)
			}

			var failovers uint64
			var flakyDown bool
			for _, h := range b.Health() {
				failovers += h.Failovers
				if h.Name == "dying-peer" {
					flakyDown = !h.Healthy
				}
			}
			if failovers == 0 {
				t.Error("balancer recorded no failovers though a backend died mid-suite")
			}
			if !flakyDown {
				t.Error("dead backend still marked healthy after failing jobs")
			}
			if b.Retries() == 0 {
				t.Error("balancer recorded no retries though jobs were re-dispatched")
			}
		})
	}
}

// TestBalancerAllBackendsDown pins the bounded-failure path: with every
// backend dead, each job resolves (no hang) with a retryable error, and
// the total attempts stay inside jobs × (1 + MaxRetries).
func TestBalancerAllBackendsDown(t *testing.T) {
	const n, retries = 6, 2
	f1 := faulttest.New("down-1").FailAfter(0, nil)
	f2 := faulttest.New("down-2").FailAfter(0, nil)
	b := newBalancer(t, engine.BalancerOptions{MaxRetries: retries}, f1, f2)

	done := make(chan struct{})
	var rs []engine.Result
	go func() {
		defer close(done)
		rs, _ = b.Run(context.Background(), scenariotest.Jobs(n))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("all-backends-down batch hung instead of resolving")
	}

	for _, r := range rs {
		if r.Err == nil {
			t.Fatalf("job %s succeeded on a fleet with every backend down", r.ID)
		}
		if !engine.Retryable(r.Err) {
			t.Errorf("job %s failed with non-backend error %v", r.ID, r.Err)
		}
	}
	attempts := f1.Stats().Submitted + f2.Stats().Submitted
	if max := uint64(n * (1 + retries)); attempts > max {
		t.Errorf("fleet saw %d attempts for %d jobs, budget allows at most %d", attempts, n, max)
	}
	for _, h := range b.Health() {
		if h.Healthy {
			t.Errorf("backend %s still marked healthy though dead on arrival", h.Name)
		}
	}
}

// TestBalancerSlowBackendDoesNotStarveSuite pins least-loaded dispatch:
// a slow-but-correct backend (width 1, 150ms per job) must hold only
// the job it is running while the fast backend carries the rest, so the
// suite finishes far sooner than the slow backend serializing it would.
func TestBalancerSlowBackendDoesNotStarveSuite(t *testing.T) {
	const n = 20
	want := scenariotest.Reference(t, scenariotest.Jobs(n))
	slow := faulttest.New("slow-peer").Delay(150 * time.Millisecond).Width(1)
	b := newBalancer(t, engine.BalancerOptions{},
		slow,
		engine.New(engine.Options{Workers: 4}))

	start := time.Now()
	rs, err := b.Run(context.Background(), scenariotest.Jobs(n))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if got := scenariotest.Render(t, rs); got != want {
		t.Errorf("slow-peer result set diverged from healthy run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Serialized through the slow peer the suite would take n×150ms = 3s.
	// The generous half-budget bound still proves the fast backend
	// carried the bulk without making the test timing-fragile.
	if budget := time.Duration(n) * 150 * time.Millisecond / 2; elapsed > budget {
		t.Errorf("suite took %v; slow peer starved dispatch (budget %v)", elapsed, budget)
	}
	if exec := slow.Executed(); exec > n/2 {
		t.Errorf("slow width-1 backend executed %d of %d jobs; least-loaded dispatch failed", exec, n)
	}
}

// TestBalancerCancelDuringFailover wedges the only retry target and
// cancels mid-failover: every job must still resolve exactly once —
// with the context error, never a hang — and the stream must close.
func TestBalancerCancelDuringFailover(t *testing.T) {
	const n = 4
	dead := faulttest.New("dead").FailAfter(0, nil)
	wedged := faulttest.New("wedged").StallAfter(0)
	b := newBalancer(t, engine.BalancerOptions{MaxRetries: 3}, dead, wedged)

	ctx, cancel := context.WithCancel(context.Background())
	ch := b.Stream(ctx, scenariotest.Jobs(n))
	// Let dispatch reach the wedged backend, then cancel mid-failover.
	time.Sleep(50 * time.Millisecond)
	cancel()

	var rs []engine.Result
	deadline := time.After(10 * time.Second)
	for {
		select {
		case r, ok := <-ch:
			if !ok {
				if len(rs) != n {
					t.Fatalf("stream closed after %d results, want %d", len(rs), n)
				}
				for _, r := range rs {
					if r.Err == nil {
						t.Errorf("job %s reported success during cancelled failover", r.ID)
						continue
					}
					if !errors.Is(r.Err, context.Canceled) && !engine.Retryable(r.Err) {
						t.Errorf("job %s resolved with unexpected error %v", r.ID, r.Err)
					}
				}
				return
			}
			rs = append(rs, r)
		case <-deadline:
			t.Fatalf("stream did not close after cancel; got %d of %d results", len(rs), n)
		}
	}
}

// TestBalancerProbeRevivesBackend drives the health cycle end to end: a
// killed backend goes unhealthy via job results and is excluded, then a
// revival plus ProbeNow brings it back into dispatch.
func TestBalancerProbeRevivesBackend(t *testing.T) {
	flaky := faulttest.New("cycling")
	eng := engine.New(engine.Options{Workers: 2})
	b := newBalancer(t, engine.BalancerOptions{}, flaky, eng)

	// Healthy round-trip first, then kill and mark down via a probe.
	if rs, _ := b.Run(context.Background(), scenariotest.Jobs(4)); len(rs) != 4 {
		t.Fatalf("warm-up run resolved %d of 4 jobs", len(rs))
	}
	flaky.Kill(nil)
	b.ProbeNow(context.Background())
	if h := b.Health(); h[0].Healthy {
		t.Fatal("probe left a dead backend marked healthy")
	}

	// While down, everything lands on the live engine.
	before := flaky.Stats().Submitted
	if rs, _ := b.Run(context.Background(), scenariotest.Jobs(6)); len(rs) != 6 {
		t.Fatal("run against degraded fleet did not resolve")
	}
	if after := flaky.Stats().Submitted; after != before {
		t.Errorf("dead backend saw %d new submissions while marked down", after-before)
	}

	// Revive; the probe loop (here: an explicit round) readmits it.
	flaky.Revive()
	b.ProbeNow(context.Background())
	if h := b.Health(); !h[0].Healthy {
		t.Fatal("probe did not revive a healthy backend")
	}
	b.Run(context.Background(), scenariotest.Jobs(8))
	if flaky.Executed() == 0 {
		t.Error("revived backend received no work")
	}
}

// TestBalancerClosedResolvesJobs pins the Close contract: jobs
// submitted after Close resolve with ErrClosed and Close is idempotent.
func TestBalancerClosedResolvesJobs(t *testing.T) {
	b := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		engine.New(engine.Options{Workers: 1}))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	rs, _ := b.Run(context.Background(), scenariotest.Jobs(3))
	for _, r := range rs {
		if !errors.Is(r.Err, engine.ErrClosed) {
			t.Errorf("job %s after Close resolved with %v, want ErrClosed", r.ID, r.Err)
		}
	}
	for r := range b.Stream(context.Background(), scenariotest.Jobs(2)) {
		if !errors.Is(r.Err, engine.ErrClosed) {
			t.Errorf("streamed job %s after Close resolved with %v, want ErrClosed", r.ID, r.Err)
		}
	}
}

// TestBalancerLocalStats pins the composite LocalStats walk: balanced
// local engines report their pool sizes without any scraping.
func TestBalancerLocalStats(t *testing.T) {
	b := newBalancer(t, engine.BalancerOptions{},
		engine.New(engine.Options{Workers: 2}),
		engine.New(engine.Options{Workers: 3}))
	b.Run(context.Background(), scenariotest.Jobs(5))
	st := engine.LocalStats(b)
	if st.Workers != 5 {
		t.Errorf("LocalStats workers = %d, want 5", st.Workers)
	}
	if st.Submitted != 5 || st.Completed != 5 {
		t.Errorf("LocalStats %+v, want 5 submitted and completed", st)
	}
}

// TestFrontsCountStreams pins the fronts' stream counter: a Balancer,
// fixed or elastic, hands its members chunks through Run, so the one
// Stream call made on the front must show in Stats and LocalStats as
// exactly one stream, not as the members' zero.
func TestFrontsCountStreams(t *testing.T) {
	a := engine.NewAutoscaler(engine.AutoscalerOptions{
		Min: 2, Max: 2, Interval: -1, Engine: engine.Options{Workers: 2},
	})
	t.Cleanup(func() { a.Close() })
	for _, front := range []engine.Evaluator{
		newBalancer(t, engine.BalancerOptions{},
			engine.New(engine.Options{Workers: 2}),
			engine.New(engine.Options{Workers: 2})),
		a,
	} {
		for range front.Stream(context.Background(), scenariotest.Jobs(6)) {
		}
		if st := front.Stats(); st.Streams != 1 || st.Completed != 6 {
			t.Errorf("%T Stats %+v, want 1 stream and 6 completed", front, st)
		}
		if st := engine.LocalStats(front); st.Streams != 1 {
			t.Errorf("%T LocalStats %+v, want 1 stream", front, st)
		}
	}
}

// TestBalancerAbandonsWedgedBackend pins the partition-fault rescue: a
// backend that accepts jobs and never finishes them (wedged, not
// crashed) is detected by a failing probe, its in-flight attempts are
// abandoned and re-classified backend-level, and the jobs complete on
// the survivor — the suite must not hang on its caller's context.
func TestBalancerAbandonsWedgedBackend(t *testing.T) {
	const n = 6
	want := scenariotest.Reference(t, scenariotest.Jobs(n))
	wedged := faulttest.New("wedged-peer").StallAfter(0).
		ProbeSick(errors.New("healthz timed out"))
	b := newBalancer(t, engine.BalancerOptions{},
		wedged,
		engine.New(engine.Options{Workers: 2}))

	done := make(chan []engine.Result, 1)
	go func() {
		rs, _ := b.Run(context.Background(), scenariotest.Jobs(n))
		done <- rs
	}()
	// Let dispatch trap at least one job on the wedged backend, then
	// deliver the probe verdict that rescues it.
	time.Sleep(50 * time.Millisecond)
	b.ProbeNow(context.Background())

	var rs []engine.Result
	select {
	case rs = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("suite hung on the wedged backend despite the probe verdict")
	}
	if got := scenariotest.Render(t, rs); got != want {
		t.Errorf("wedged-backend result set diverged from healthy run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	var h engine.BackendHealth
	for _, m := range b.Health() {
		if m.Name == "wedged-peer" {
			h = m
		}
	}
	if h.Failovers == 0 {
		t.Error("no failovers recorded for the abandoned attempts")
	}
	if h.Healthy {
		t.Error("wedged backend still marked healthy after a failing probe")
	}
	if h.ProbeFailures == 0 {
		t.Error("probe failure not recorded")
	}
}

// TestBalancerAbandonsAttemptDownedAtStart pins the abandonment of an
// attempt whose member goes down before the attempt has done anything:
// the backend marks itself sick and has the front probe it from inside
// its own Run, then holds the chunk until cancelled. The attempt was
// placed on a healthy member, so the down verdict must abandon it and
// the job must finish on the engine. Under GOMAXPROCS(1) the verdict
// lands before any goroutine the attempt starts gets to run, so the
// test holds whatever way an attempt learns of it.
func TestBalancerAbandonsAttemptDownedAtStart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sick := &sickensOnRun{}
	// The engine has one worker and sick the default width of 8, so the
	// job is placed on sick.
	b := newBalancer(t, engine.BalancerOptions{},
		engine.New(engine.Options{Workers: 1}),
		sick)
	sick.front = b

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rs, err := b.Run(ctx, scenariotest.Jobs(1))
	if err != nil {
		t.Fatalf("run ended with %v: the attempt on the downed member was not abandoned", err)
	}
	if rs[0].Err != nil {
		t.Fatalf("job failed: %v", rs[0].Err)
	}
	h := b.Health()
	if h[0].Completed != 1 {
		t.Errorf("engine scorecard %+v, want the job completed there", h[0])
	}
	if h[1].Healthy || h[1].Failovers != 1 {
		t.Errorf("sick scorecard %+v, want it down with the job failed over", h[1])
	}
}

// sickensOnRun is a remote-like backend (no local workers) whose probe
// turns sick inside its first Run: it has the front probe it, then
// holds the chunk until the front cancels it.
type sickensOnRun struct {
	front *engine.Balancer
	sick  atomic.Bool
}

func (s *sickensOnRun) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	s.sick.Store(true)
	s.front.ProbeNow(context.Background())
	<-ctx.Done()
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		out[i] = engine.Result{ID: j.ID, Err: ctx.Err(), Worker: -1}
	}
	return out, ctx.Err()
}

func (s *sickensOnRun) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	out := make(chan engine.Result, len(jobs))
	rs, _ := s.Run(ctx, jobs)
	for _, r := range rs {
		out <- r
	}
	close(out)
	return out
}

func (s *sickensOnRun) Stats() engine.Stats { return engine.Stats{} }
func (s *sickensOnRun) Close() error        { return nil }

func (s *sickensOnRun) Probe(context.Context) error {
	if s.sick.Load() {
		return errors.New("healthz failed")
	}
	return nil
}

// TestBalancerProbeLeavesNonProberAlone pins the no-oracle rule: a
// probe round must not revive a backend without a Prober that job
// results marked down — fabricated health would route fresh jobs into
// a dead backend.
func TestBalancerProbeLeavesNonProberAlone(t *testing.T) {
	dead := &proberlessBackend{err: fmt.Errorf("boom: %w", engine.ErrUnavailable)}
	b := newBalancer(t, engine.BalancerOptions{},
		dead,
		engine.New(engine.Options{Workers: 1}))

	if rs, _ := b.Run(context.Background(), scenariotest.Jobs(4)); len(rs) != 4 {
		t.Fatal("run did not resolve")
	}
	h := b.Health()
	if h[0].Healthy {
		t.Fatal("failing proberless backend not marked down by job results")
	}
	b.ProbeNow(context.Background())
	h = b.Health()
	if h[0].Healthy {
		t.Error("probe round revived a proberless backend with no evidence")
	}
	if h[0].Probes != 0 {
		t.Errorf("probe round counted %d probes against a proberless backend", h[0].Probes)
	}
}

// proberlessBackend fails every job with a backend-level error and
// implements only the bare Evaluator surface — no Probe.
type proberlessBackend struct{ err error }

func (p *proberlessBackend) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		out[i] = engine.Result{ID: j.ID, Err: p.err, Worker: -1}
	}
	return out, ctx.Err()
}

func (p *proberlessBackend) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	out := make(chan engine.Result, len(jobs))
	rs, _ := p.Run(ctx, jobs)
	for _, r := range rs {
		out <- r
	}
	close(out)
	return out
}

func (p *proberlessBackend) Stats() engine.Stats { return engine.Stats{Workers: 1} }
func (p *proberlessBackend) Close() error        { return nil }

// TestBalancerRevivalRescuesLastResortAttempt pins the all-down rescue:
// with every backend down, a job is dispatched last-resort onto a
// wedged backend that never finishes it; when the other backend
// revives, the stuck attempt must be abandoned and the job re-run on
// the survivor — the suite must not stay hostage to the wedge.
func TestBalancerRevivalRescuesLastResortAttempt(t *testing.T) {
	wedged := faulttest.New("wedged").StallAfter(0).
		ProbeSick(errors.New("healthz timed out"))
	other := faulttest.New("other")
	b := newBalancer(t, engine.BalancerOptions{MaxRetries: 3}, wedged, other)

	other.Kill(nil)
	b.ProbeNow(context.Background())
	for _, h := range b.Health() {
		if h.Healthy {
			t.Fatalf("backend %s still healthy before the all-down scenario", h.Name)
		}
	}

	// rr starts at the wedged member, so the single last-resort job
	// lands there deterministically and stalls.
	done := make(chan engine.Result, 1)
	go func() {
		rs, _ := b.Run(context.Background(), scenariotest.Jobs(1))
		done <- rs[0]
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("job resolved before any backend revived: %+v", r)
	default:
	}

	other.Revive()
	b.ProbeNow(context.Background())
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatalf("job failed after a backend revived: %v", r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("revival did not rescue the job stuck on the wedged backend")
	}
	if other.Executed() == 0 {
		t.Error("revived backend executed nothing; the rescue did not re-dispatch")
	}
}

// TestBalancerFailoverAccounting pins the scorecard semantics: a
// backend-level failure books a failover exactly when the job is
// re-dispatched and a terminal failure when the budget is spent, so
// dispatched = completed + failed + failovers on every backend.
func TestBalancerFailoverAccounting(t *testing.T) {
	const n, retries = 4, 2
	dead := faulttest.New("dead").FailAfter(0, nil)
	b := newBalancer(t, engine.BalancerOptions{MaxRetries: retries}, dead)

	b.Run(context.Background(), scenariotest.Jobs(n))
	h := b.Health()[0]
	if h.Dispatched != h.Completed+h.Failed+h.Failovers {
		t.Errorf("scorecard does not balance: dispatched %d != completed %d + failed %d + failovers %d",
			h.Dispatched, h.Completed, h.Failed, h.Failovers)
	}
	// Every job fails terminally on the only backend: n terminal
	// failures, n×retries failovers (each re-dispatch), zero completed.
	if h.Failed != n || h.Failovers != uint64(n*retries) || h.Completed != 0 {
		t.Errorf("scorecard %+v, want failed=%d failovers=%d completed=0", h, n, n*retries)
	}
}

// TestBalancerOwnRecoveryDoesNotAbortAttempt pins the revival edge: on
// a sole unhealthy backend, a last-resort attempt must survive that
// same backend's recovery mid-flight — the running job is the evidence
// it recovered, and aborting it would oscillate health forever.
func TestBalancerOwnRecoveryDoesNotAbortAttempt(t *testing.T) {
	solo := faulttest.New("solo").Delay(300 * time.Millisecond).
		ProbeSick(errors.New("healthz flapping"))
	// MaxRetries < 0: no failover budget, so an abort would surface as
	// a failed job instead of being papered over by a retry.
	b := newBalancer(t, engine.BalancerOptions{MaxRetries: -1}, solo)

	b.ProbeNow(context.Background())
	if b.Health()[0].Healthy {
		t.Fatal("probe did not mark the flapping backend down")
	}

	done := make(chan engine.Result, 1)
	go func() {
		rs, _ := b.Run(context.Background(), scenariotest.Jobs(1))
		done <- rs[0]
	}()
	time.Sleep(50 * time.Millisecond)
	solo.ProbeSick(nil)
	b.ProbeNow(context.Background()) // the member itself revives mid-attempt

	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatalf("job aborted by its own backend's recovery: %v", r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not resolve")
	}
	if !b.Health()[0].Healthy {
		t.Error("recovered backend marked down again by its own surviving attempt")
	}
}

// capacityBackend is a correct backend that reports a scripted capacity
// snapshot and records the largest batch handed to it — the probe for
// capacity-aware chunk sizing.
type capacityBackend struct {
	snap engine.Capacity

	mu       sync.Mutex
	maxBatch int
}

func (c *capacityBackend) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	c.mu.Lock()
	if len(jobs) > c.maxBatch {
		c.maxBatch = len(jobs)
	}
	c.mu.Unlock()
	out := make([]engine.Result, len(jobs))
	for i, j := range jobs {
		v, err := j.Fn(ctx)
		out[i] = engine.Result{ID: j.ID, Value: v, Err: err, Worker: 0}
	}
	return out, ctx.Err()
}

func (c *capacityBackend) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	out := make(chan engine.Result, len(jobs))
	rs, _ := c.Run(ctx, jobs)
	for _, r := range rs {
		out <- r
	}
	close(out)
	return out
}

func (c *capacityBackend) Stats() engine.Stats { return engine.Stats{Workers: c.snap.Workers} }
func (c *capacityBackend) Close() error        { return nil }

func (c *capacityBackend) Probe(context.Context) error { return nil }

func (c *capacityBackend) Capacity(context.Context) (engine.Capacity, error) {
	return c.snap, nil
}

func (c *capacityBackend) max() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBatch
}

// TestBalancerCapacitySizesChunks pins capacity-aware chunk sizing: a
// probe round scrapes the backend's capacity into its scorecard, and
// subsequent chunks are capped at the scraped free workers — a busy
// peer sheds load — even when the configured chunk and the static
// width would both allow more.
func TestBalancerCapacitySizesChunks(t *testing.T) {
	tests := []struct {
		name     string
		snap     engine.Capacity
		maxChunk int
	}{
		{"free workers cap the chunk", engine.Capacity{Workers: 8, Busy: 6, Free: 2}, 2},
		// A saturated peer (zero free, deep queue) must shed down to
		// the 1-job minimum, not bypass the cap and take full chunks.
		{"saturated peer sheds to one job", engine.Capacity{Workers: 8, Busy: 8, Queue: 12}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cb := &capacityBackend{snap: tt.snap}
			b := newBalancer(t, engine.BalancerOptions{Chunk: 6}, cb)

			b.ProbeNow(context.Background())
			h := b.Health()[0]
			if h.CapacityScrapes == 0 || h.Capacity == nil {
				t.Fatalf("probe round did not scrape capacity: %+v", h)
			}
			if h.Capacity.Free != tt.snap.Free {
				t.Fatalf("scorecard capacity %+v, want the scripted snapshot", h.Capacity)
			}

			rs, err := b.Run(context.Background(), scenariotest.Jobs(12))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.Err != nil {
					t.Fatalf("job %s failed: %v", r.ID, r.Err)
				}
			}
			if got := cb.max(); got > tt.maxChunk {
				t.Errorf("largest chunk was %d jobs; scraped capacity should cap it at %d", got, tt.maxChunk)
			}
			if want := uint64(12 / tt.maxChunk); b.Chunks() < want {
				t.Errorf("12 jobs dispatched as %d chunks, want at least %d", b.Chunks(), want)
			}
		})
	}
}

// TestBalancerCountsLocalMembers pins that an in-process member is
// counted, not scraped: a probe round leaves a local engine's scorecard
// without a capacity snapshot, and a probe taken while the engine was
// busy does not shrink its later chunks — once it is idle again, 8 jobs
// at Chunk 4 on its 4 workers ride 2 chunks.
func TestBalancerCountsLocalMembers(t *testing.T) {
	b := newBalancer(t, engine.BalancerOptions{Chunk: 4}, engine.New(engine.Options{Workers: 4}))
	b.ProbeNow(context.Background())
	if h := b.Health()[0]; h.Probes != 1 || h.Capacity != nil || h.CapacityScrapes != 0 {
		t.Errorf("after a probe round the local member's scorecard is %+v, want one probe and no capacity snapshot", h)
	}

	// Probe while a chunk holds all four workers, then let it finish.
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	busy := make([]engine.Job, 4)
	for i := range busy {
		busy[i] = engine.Job{ID: fmt.Sprintf("busy%d", i), Fn: func(context.Context) (any, error) {
			started <- struct{}{}
			<-release
			return nil, nil
		}}
	}
	done := b.Stream(context.Background(), busy)
	for range busy {
		<-started
	}
	b.ProbeNow(context.Background())
	close(release)
	for r := range done {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.ID, r.Err)
		}
	}

	before := b.Chunks()
	rs, err := b.Run(context.Background(), scenariotest.Jobs(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.ID, r.Err)
		}
	}
	if got := b.Chunks() - before; got != 2 {
		t.Errorf("8 jobs on the idle 4-worker engine rode %d chunks at Chunk 4, want 2", got)
	}
}
