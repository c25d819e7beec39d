// Autoscaler tests drive scaling deterministically: a negative
// Interval disables the background loop and a negative Cooldown the
// event gap, so every pool transition happens inside an explicit
// ScaleNow call the test controls.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// manualScaler builds an autoscaler whose pool only moves when the test
// calls ScaleNow.
func manualScaler(t *testing.T, opts engine.AutoscalerOptions) *engine.Autoscaler {
	t.Helper()
	opts.Interval = -1
	opts.Cooldown = -1
	a := engine.NewAutoscaler(opts)
	t.Cleanup(func() { a.Close() })
	return a
}

// blockingJob returns a job that parks until release is closed.
func blockingJob(id string, release <-chan struct{}) engine.Job {
	return engine.Job{ID: id, Fn: func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return id, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainStream collects every result of a stream.
func drainStream(ch <-chan engine.Result) []engine.Result {
	var out []engine.Result
	for r := range ch {
		out = append(out, r)
	}
	return out
}

// TestAutoscalerGrowsUnderQueue pins the scale-up signal: jobs parked
// beyond the active capacity grow the pool one member per round until
// the local ceiling, and every transition lands in the event log.
func TestAutoscalerGrowsUnderQueue(t *testing.T) {
	a := manualScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 3,
		Engine: engine.Options{Workers: 1},
	})
	if got := a.Size(); got != 1 {
		t.Fatalf("pool starts with %d members, want the minimum 1", got)
	}

	release := make(chan struct{})
	jobs := make([]engine.Job, 5)
	for i := range jobs {
		jobs[i] = blockingJob(fmt.Sprintf("j%d", i), release)
	}
	stream := a.Stream(context.Background(), jobs)

	// One slot exists, so four jobs park — the queue-depth signal.
	waitUntil(t, "jobs to queue", func() bool { return a.ScaleState().Queue >= 2 })
	for round := 0; round < 2; round++ {
		if !a.ScaleNow() {
			t.Fatalf("round %d: ScaleNow did not grow a queued pool", round)
		}
	}
	if got := a.Size(); got != 3 {
		t.Fatalf("pool has %d members after two scale-ups, want 3", got)
	}
	// The ceiling holds even though jobs are still queued.
	waitUntil(t, "queue after growth", func() bool { return a.ScaleState().Queue >= 1 })
	if a.ScaleNow() {
		t.Fatal("ScaleNow grew past the local ceiling with no standbys")
	}

	close(release)
	results := drainStream(stream)
	if len(results) != len(jobs) {
		t.Fatalf("stream yielded %d results, want %d", len(results), len(jobs))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %s failed across the scaling pool: %v", r.ID, r.Err)
		}
	}
	if ups, downs := a.ScaleUps(), a.ScaleDowns(); ups != 2 || downs != 0 {
		t.Errorf("scale counters ups=%d downs=%d, want 2/0", ups, downs)
	}
	events := a.Events()
	if len(events) != 2 {
		t.Fatalf("event log has %d entries, want 2", len(events))
	}
	for i, e := range events {
		if e.Direction != "up" || e.Seq != i+1 || e.Backend == "" || e.Reason == "" {
			t.Errorf("event %d = %+v, want an up event with seq %d and a named backend/reason", i, e, i+1)
		}
	}
}

// closeTracker wraps a member so the test observes exactly when the
// autoscaler releases it.
type closeTracker struct {
	engine.Evaluator
	closed atomic.Bool
}

func (c *closeTracker) Close() error {
	c.closed.Store(true)
	return c.Evaluator.Close()
}

// TestAutoscalerDrainsBeforeRetire pins the shrink contract: a retired
// member stops receiving new jobs immediately but is closed only after
// its in-flight jobs resolve, so a shrink never loses work.
func TestAutoscalerDrainsBeforeRetire(t *testing.T) {
	var trackers []*closeTracker
	a := manualScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 2,
		DownThreshold: 0.9,
		Spawn: func() engine.Evaluator {
			ct := &closeTracker{Evaluator: engine.New(engine.Options{Workers: 2})}
			trackers = append(trackers, ct)
			return ct
		},
	})

	// Grow to two members by queuing past the first one's width.
	release := make(chan struct{})
	var jobs []engine.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, blockingJob(fmt.Sprintf("burst%d", i), release))
	}
	stream := a.Stream(context.Background(), jobs)
	waitUntil(t, "burst to queue", func() bool { return a.ScaleState().Queue >= 1 })
	if !a.ScaleNow() {
		t.Fatal("ScaleNow did not grow under the burst")
	}
	waitUntil(t, "both members busy", func() bool {
		for _, h := range a.Health() {
			if h.Inflight == 0 {
				return false
			}
		}
		return len(a.Health()) == 2
	})

	// Both members carry in-flight work; utilization 4/4 is busy, so
	// first drain the queue down to one blocked job per member by
	// releasing nothing yet — instead force the shrink signal with the
	// high DownThreshold once the queue clears. Release two jobs.
	st := a.ScaleState()
	if st.ActiveShards != 2 {
		t.Fatalf("active shards = %d, want 2", st.ActiveShards)
	}

	close(release)
	results := drainStream(stream)
	if len(results) != len(jobs) {
		t.Fatalf("burst yielded %d results, want %d", len(results), len(jobs))
	}

	// Pin a fresh blocking job on each member so the shrink victim is
	// guaranteed to have in-flight work when it is retired.
	hold := make(chan struct{})
	s2 := a.Stream(context.Background(), []engine.Job{
		blockingJob("hold0", hold), blockingJob("hold1", hold),
	})
	waitUntil(t, "one held job per member", func() bool {
		hs := a.Health()
		return len(hs) == 2 && hs[0].Inflight == 1 && hs[1].Inflight == 1
	})

	// util = 2/4 = 0.5 < 0.9, queue empty → shrink. Equal load means
	// the first member is the victim.
	if !a.ScaleNow() {
		t.Fatal("ScaleNow did not shrink the underutilized pool")
	}
	hs := a.Health()
	if !hs[0].Retired || hs[0].Healthy {
		t.Fatalf("victim health %+v, want retired and not healthy", hs[0])
	}
	if trackers[0].closed.Load() {
		t.Fatal("victim closed while its job was still in flight — drain-before-retire violated")
	}

	close(hold)
	for _, r := range drainStream(s2) {
		if r.Err != nil {
			t.Errorf("held job %s failed: %v", r.ID, r.Err)
		}
	}
	waitUntil(t, "victim to drain and close", func() bool { return trackers[0].closed.Load() })
	if trackers[1].closed.Load() {
		t.Fatal("surviving member was closed by the shrink")
	}
	if ups, downs := a.ScaleUps(), a.ScaleDowns(); ups != 1 || downs != 1 {
		t.Errorf("scale counters ups=%d downs=%d, want 1/1", ups, downs)
	}

	// The shrunken pool still serves jobs.
	rs, err := a.Run(context.Background(), []engine.Job{
		{ID: "after", Fn: func(context.Context) (any, error) { return 42, nil }},
	})
	if err != nil || rs[0].Err != nil || rs[0].Value.(int) != 42 {
		t.Fatalf("post-shrink run = (%+v, %v), want value 42", rs, err)
	}
}

// TestAutoscalerRecruitsAndRetiresStandbys pins the standby lifecycle:
// standbys are dialed only once the local ceiling is exhausted, carry
// jobs like any member, and retire before local shards when load drops.
func TestAutoscalerRecruitsAndRetiresStandbys(t *testing.T) {
	var dials atomic.Int32
	a := manualScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 1,
		Engine:        engine.Options{Workers: 1},
		DownThreshold: 0.9,
		Standby: []engine.StandbyBackend{{
			Name: "reserve-a",
			Dial: func() (engine.Evaluator, error) {
				dials.Add(1)
				return engine.New(engine.Options{Workers: 1}), nil
			},
		}},
	})

	release := make(chan struct{})
	stream := a.Stream(context.Background(), []engine.Job{
		blockingJob("b0", release), blockingJob("b1", release), blockingJob("b2", release),
	})
	waitUntil(t, "jobs to queue", func() bool { return a.ScaleState().Queue >= 1 })
	if !a.ScaleNow() {
		t.Fatal("ScaleNow did not recruit the standby at the local ceiling")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("standby dialed %d times, want 1", got)
	}
	st := a.ScaleState()
	if st.ActiveShards != 1 || st.ActiveStandbys != 1 {
		t.Fatalf("scale state %+v, want 1 local + 1 standby active", st)
	}
	hs := a.Health()
	if len(hs) != 2 || !hs[1].Standby || hs[1].Name != "reserve-a" {
		t.Fatalf("health %+v, want the second member to be standby reserve-a", hs)
	}

	close(release)
	results := drainStream(stream)
	if len(results) != 3 {
		t.Fatalf("stream yielded %d results, want 3", len(results))
	}
	waitUntil(t, "pool to go idle", func() bool { return a.ScaleState().Busy == 0 })

	// Idle: the standby retires first — and the local floor of one means
	// a second shrink round has no victim.
	if !a.ScaleNow() {
		t.Fatal("ScaleNow did not retire the idle standby")
	}
	hs = a.Health()
	if !hs[1].Retired || hs[1].Healthy {
		t.Fatalf("standby health %+v, want retired", hs[1])
	}
	if hs[0].Retired {
		t.Fatalf("local shard %+v retired before the standby", hs[0])
	}
	if a.ScaleNow() {
		t.Fatal("ScaleNow shrank below the local floor")
	}
	if ev := a.Events(); len(ev) != 2 || ev[0].Direction != "up" || ev[1].Direction != "down" {
		t.Fatalf("events %+v, want exactly one up then one down", ev)
	}
}

// TestAutoscalerStandbyDialFailureSkipsRound pins the failure path: a
// standby whose dial errors is skipped without a scale event, and the
// pool keeps serving from its local members.
func TestAutoscalerStandbyDialFailureSkipsRound(t *testing.T) {
	a := manualScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 1,
		Engine: engine.Options{Workers: 1},
		Standby: []engine.StandbyBackend{{
			Name: "broken",
			Dial: func() (engine.Evaluator, error) { return nil, errors.New("dial refused") },
		}},
	})

	release := make(chan struct{})
	stream := a.Stream(context.Background(), []engine.Job{
		blockingJob("b0", release), blockingJob("b1", release),
	})
	waitUntil(t, "a job to queue", func() bool { return a.ScaleState().Queue >= 1 })
	if a.ScaleNow() {
		t.Fatal("ScaleNow reported growth although the only standby's dial failed")
	}
	if got := a.ScaleUps(); got != 0 {
		t.Errorf("ScaleUps = %d after a failed dial, want 0", got)
	}
	close(release)
	for _, r := range drainStream(stream) {
		if r.Err != nil {
			t.Errorf("job %s failed: %v", r.ID, r.Err)
		}
	}
}

// TestAutoscalerCooldownGatesEvents pins the hysteresis gap: with a
// long cooldown, a second trigger inside the window is ignored.
func TestAutoscalerCooldownGatesEvents(t *testing.T) {
	a := engine.NewAutoscaler(engine.AutoscalerOptions{
		Min: 1, Max: 3,
		Engine:   engine.Options{Workers: 1},
		Interval: -1,
		Cooldown: time.Hour,
	})
	defer a.Close()

	release := make(chan struct{})
	var jobs []engine.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, blockingJob(fmt.Sprintf("c%d", i), release))
	}
	stream := a.Stream(context.Background(), jobs)
	waitUntil(t, "jobs to queue", func() bool { return a.ScaleState().Queue >= 2 })
	if !a.ScaleNow() {
		t.Fatal("first ScaleNow did not grow")
	}
	if a.ScaleNow() {
		t.Fatal("second ScaleNow ignored the cooldown")
	}
	if got := a.ScaleUps(); got != 1 {
		t.Errorf("ScaleUps = %d, want 1 inside the cooldown window", got)
	}
	close(release)
	drainStream(stream)
}

// TestAutoscalerCloseResolvesParkedJobs pins the Close contract over
// the elastic pool: in-flight jobs finish, parked jobs resolve with
// ErrClosed, and Close is idempotent.
func TestAutoscalerCloseResolvesParkedJobs(t *testing.T) {
	a := engine.NewAutoscaler(engine.AutoscalerOptions{
		Min: 1, Max: 1,
		Engine:   engine.Options{Workers: 1},
		Interval: -1,
	})

	release := make(chan struct{})
	jobs := []engine.Job{
		blockingJob("running", release),
		blockingJob("parked0", release),
		blockingJob("parked1", release),
	}
	stream := a.Stream(context.Background(), jobs)
	waitUntil(t, "jobs to park", func() bool { return a.ScaleState().Queue == 2 })

	done := make(chan error, 1)
	go func() { done <- a.Close() }()
	// Close drains the in-flight job; let it finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Close() = %v", err)
	}

	// Any of the three jobs may have won the single slot — dispatch is
	// concurrent — but the Close contract fixes the shape: exactly the
	// one in-flight job drains successfully, the two parked ones resolve
	// with ErrClosed.
	var drained, refused int
	for _, r := range drainStream(stream) {
		switch {
		case r.Err == nil:
			drained++
		case errors.Is(r.Err, engine.ErrClosed):
			refused++
		default:
			t.Errorf("job %s = %+v, want success or ErrClosed", r.ID, r)
		}
	}
	if drained != 1 || refused != 2 {
		t.Fatalf("close resolved %d drained + %d refused, want 1 + 2", drained, refused)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close() = %v, want idempotent nil", err)
	}
}

// TestAutoscalerRunKeepsSubmissionOrder pins the Run contract over a
// scaling pool: one result per job, in submission order.
func TestAutoscalerRunKeepsSubmissionOrder(t *testing.T) {
	a := manualScaler(t, engine.AutoscalerOptions{
		Min: 2, Max: 2,
		Engine: engine.Options{Workers: 1},
	})
	var jobs []engine.Job
	for i := 0; i < 20; i++ {
		i := i
		jobs = append(jobs, engine.Job{
			ID: fmt.Sprintf("n%02d", i),
			Fn: func(context.Context) (any, error) { return i, nil },
		})
	}
	results, err := a.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.ID != jobs[i].ID || r.Err != nil || r.Value.(int) != i {
			t.Errorf("result %d = %+v, want job %s with value %d", i, r, jobs[i].ID, i)
		}
	}
	st := a.Stats()
	if st.Completed != 20 {
		t.Errorf("stats %+v, want 20 completed", st)
	}
}

// TestAutoscalerFailoverRetriesOnDeadMember pins job-level failover
// inside the pool: a member that starts failing retryably has its jobs
// re-run on another member within the budget.
func TestAutoscalerFailoverRetriesOnDeadMember(t *testing.T) {
	var spawned int
	a := manualScaler(t, engine.AutoscalerOptions{
		Min: 2, Max: 2,
		Spawn: func() engine.Evaluator {
			spawned++
			if spawned == 1 {
				// The first member dies immediately: every dispatch to it
				// resolves with the retryable closed error.
				e := engine.New(engine.Options{Workers: 1})
				e.Close()
				return e
			}
			return engine.New(engine.Options{Workers: 1})
		},
	})

	results, err := a.Run(context.Background(), []engine.Job{
		{ID: "a", Fn: func(context.Context) (any, error) { return 1, nil }},
		{ID: "b", Fn: func(context.Context) (any, error) { return 2, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i+1 {
			t.Errorf("result %d = %+v, want value %d despite the dead member", i, r, i+1)
		}
	}
	var failovers uint64
	for _, h := range a.Health() {
		failovers += h.Failovers
	}
	if failovers == 0 && a.Retries() == 0 {
		t.Error("no failovers or retries recorded although one member was dead")
	}
}

// drainWatch is a closeTracker that also records the member's scorecard
// Inflight at the moment the autoscaler closes it.
type drainWatch struct {
	closeTracker
	inflight func() int
	atClose  atomic.Int64
}

func (d *drainWatch) Close() error {
	d.atClose.Store(int64(d.inflight()))
	return d.closeTracker.Close()
}

// memberInflight reads ev's scorecard Inflight from a, or -1 when ev is
// not one of a's members.
func memberInflight(a *engine.Autoscaler, ev engine.Evaluator) int {
	hs := a.Health()
	for i := range hs {
		if a.Backend(i) == ev {
			return hs[i].Inflight
		}
	}
	return -1
}

// TestAutoscalerScalesDuringStream pins the mutable member list against
// concurrent readers: while a stream runs, one goroutine drives
// ScaleNow in a loop and another reads every view of the pool. Every
// job must resolve once and successfully, the pool must grow, and after
// the stream drains, shrinking to the minimum must close each retired
// member only once nothing is in flight on it.
func TestAutoscalerScalesDuringStream(t *testing.T) {
	var (
		a       *engine.Autoscaler
		mu      sync.Mutex
		watches []*drainWatch
	)
	member := func() engine.Evaluator {
		d := &drainWatch{closeTracker: closeTracker{
			Evaluator: engine.New(engine.Options{Workers: 1})}}
		d.inflight = func() int { return memberInflight(a, d) }
		mu.Lock()
		watches = append(watches, d)
		mu.Unlock()
		return d
	}
	// A DownThreshold just under 1 lets the scaler retire members while
	// the tail of the stream still runs on them, so drains are exercised.
	a = manualScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 3,
		DownThreshold: 0.99,
		Spawn:         member,
		Standby: []engine.StandbyBackend{{
			Name: "local-standby",
			Dial: func() (engine.Evaluator, error) { return member(), nil },
		}},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.ScaleNow()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.Health()
			a.Stats()
			for i := 0; i < a.Size(); i++ {
				a.Backend(i)
			}
			if _, err := a.Capacity(ctx); err != nil {
				t.Errorf("Capacity: %v", err)
			}
			a.ScaleState()
		}
	}()

	const n = 200
	jobs := make([]engine.Job, n)
	for i := range jobs {
		i := i
		jobs[i] = engine.Job{ID: fmt.Sprintf("s%03d", i), Fn: func(context.Context) (any, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	seen := map[string]int{}
	for r := range a.Stream(context.Background(), jobs) {
		seen[r.ID]++
		if r.Err != nil {
			t.Errorf("job %s failed while the pool scaled: %v", r.ID, r.Err)
		}
	}
	close(stop)
	wg.Wait()
	if len(seen) != n {
		t.Errorf("stream resolved %d distinct jobs, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("job %s resolved %d times, want once", id, c)
		}
	}
	if a.ScaleUps() == 0 {
		t.Fatal("the queued stream never grew the pool")
	}

	// Idle now: shrink round by round down to the minimum.
	waitUntil(t, "the pool to shrink to its minimum", func() bool {
		a.ScaleNow()
		st := a.ScaleState()
		return st.ActiveShards == 1 && st.ActiveStandbys == 0
	})
	hs := a.Health()
	for i, h := range hs {
		d := a.Backend(i).(*drainWatch)
		if !h.Retired {
			if d.closed.Load() {
				t.Errorf("active member %s was closed", h.Name)
			}
			continue
		}
		waitUntil(t, "retired member "+h.Name+" to close", d.closed.Load)
		if got := d.atClose.Load(); got != 0 {
			t.Errorf("retired member %s closed with %d jobs in flight", h.Name, got)
		}
	}
	mu.Lock()
	spawned := len(watches)
	mu.Unlock()
	if spawned != len(hs) {
		t.Errorf("%d members built for %d scorecards", spawned, len(hs))
	}
	t.Logf("%d scale-ups, %d scale-downs over %d members", a.ScaleUps(), a.ScaleDowns(), len(hs))
}
