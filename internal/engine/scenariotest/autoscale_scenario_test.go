package scenariotest_test

// Autoscaler scenarios: the elastic pool must be invisible in the
// results. Whatever the pool does while a suite runs — growing under
// the burst, recruiting a standby peer, draining members back down to
// idle — the merged report stays byte-identical to a healthy fixed-size
// run; only the scale counters and event log may differ.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/scenariotest"
	"repro/internal/remote"
	"repro/internal/serve"
)

// fastScaler builds an elastic pool beside the fixed backends whose
// background loop re-evaluates every millisecond, with no cooldown
// unless opts sets one, so a burst that stays queued triggers scale
// events within the run. It returns the pool and its scaling policy.
func fastScaler(t *testing.T, opts engine.AutoscalerOptions, fixed ...engine.Evaluator) (*engine.Balancer, *engine.Autoscaler) {
	t.Helper()
	opts.Interval = time.Millisecond
	if opts.Cooldown == 0 {
		opts.Cooldown = -1
	}
	b := engine.NewAutoscaler(opts, fixed...)
	t.Cleanup(func() { b.Close() })
	return b, b.Autoscaler()
}

// burstJobs returns n bench jobs whose local runs each wait, for at most
// ten seconds, until a has scaled up. A bench job can finish in well
// under the scale loop's interval, so without the hold the whole burst
// may drain between two ticks and the scale-up under test never has a
// queue to react to. The held jobs keep it queued until the loop has
// acted. A job placed on a remote member runs from its Spec, unheld.
func burstJobs(t *testing.T, a *engine.Autoscaler, n int) []engine.Job {
	t.Helper()
	jobs := scenariotest.BenchJobs(t, n)
	for i := range jobs {
		run := jobs[i].Fn
		jobs[i].Fn = func(ctx context.Context) (any, error) {
			deadline := time.Now().Add(10 * time.Second)
			for a.ScaleUps() == 0 && ctx.Err() == nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return run(ctx)
		}
	}
	return jobs
}

// waitForScaler polls cond until it holds or the deadline passes.
func waitForScaler(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoscaleUpUnderBurst pins the scale-up scenario: a burst queued
// behind a one-worker minimum pool grows it mid-suite, and the results
// stay byte-identical to the healthy fixed-size reference.
func TestAutoscaleUpUnderBurst(t *testing.T) {
	const n = 10
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	b, a := fastScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 3,
		Engine: engine.Options{Workers: 1},
	})

	scenariotest.Check(t, b, burstJobs(t, a, n), want,
		scenariotest.RenderRows)

	if got := a.ScaleUps(); got == 0 {
		t.Error("burst produced no scale-up events")
	}
	if got := b.Size(); got < 2 {
		t.Errorf("pool held %d members after the burst, want growth beyond the minimum", got)
	}
	for _, e := range a.Events() {
		if e.Direction == "up" && e.Reason == "" {
			t.Errorf("scale-up event %+v carries no reason", e)
		}
	}
}

// TestAutoscaleDownToIdle pins the scale-down scenario: after the burst
// drains, the idle pool shrinks back to its minimum — every retired
// member drained before close — and a follow-up suite on the shrunken
// pool still matches the reference byte-for-byte.
func TestAutoscaleDownToIdle(t *testing.T) {
	const n = 10
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	b, a := fastScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 3,
		Engine: engine.Options{Workers: 1},
	})

	scenariotest.Check(t, b, burstJobs(t, a, n), want,
		scenariotest.RenderRows)
	if a.ScaleUps() == 0 {
		t.Fatal("burst produced no scale-up events to shrink back from")
	}

	// The suite is done: the loop now sees an idle pool and retires
	// members down to the floor.
	waitForScaler(t, "the pool to shrink to its minimum", func() bool {
		return a.ScaleDowns() > 0 && a.ScaleState().ActiveShards == 1
	})
	retired := 0
	for _, h := range b.Health() {
		if h.Retired {
			retired++
			if h.Healthy {
				t.Errorf("retired member %+v still marked healthy", h)
			}
		}
	}
	if retired == 0 {
		t.Error("no member scorecard shows a retirement")
	}

	// The shrunken pool serves the same suite identically.
	scenariotest.Check(t, b, scenariotest.BenchJobs(t, n), want,
		scenariotest.RenderRows)
}

// TestAutoscaleStandbyBurst pins the standby scenario across the HTTP
// stack: a pool capped at one local shard recruits a real art9-serve
// peer under burst, and the merged rows stay byte-identical to the
// healthy reference even though some jobs ran remotely.
func TestAutoscaleStandbyBurst(t *testing.T) {
	const n = 10
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	peer := serve.NewWithBackend(engine.New(engine.Options{Workers: 2}))
	ts := httptest.NewServer(peer.Handler())
	t.Cleanup(func() {
		ts.Close()
		peer.Close()
	})

	// A cooldown longer than the burst allows one scale event during it:
	// the peer recruited for the burst is neither retired nor recruited
	// again before the suite ends, so it holds one scorecard.
	b, a := fastScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 1,
		Engine:   engine.Options{Workers: 1},
		Cooldown: time.Minute,
		Standby: []engine.StandbyBackend{{
			Name: "standby-peer",
			Dial: func() (engine.Evaluator, error) { return remote.New(ts.URL) },
		}},
	})

	scenariotest.Check(t, b, burstJobs(t, a, n), want,
		scenariotest.RenderRows)

	if a.ScaleUps() == 0 {
		t.Error("burst never recruited the standby peer")
	}
	sawStandby := false
	for _, h := range b.Health() {
		if h.Standby && h.Name == "standby-peer" {
			sawStandby = true
			if h.Dispatched == 0 {
				t.Error("recruited standby peer carried no jobs")
			}
		}
	}
	if !sawStandby {
		t.Error("no standby member appears in the health scorecards")
	}
}

// TestAutoscaleBesideFixedPeer pins fixed members in an elastic pool: a
// pool built beside one art9-serve leaf grows under the burst, the
// merged rows stay byte-identical to the healthy reference, and once
// idle, ScaleNow retires the spawned locals down to the minimum but
// never the leaf, which keeps carrying jobs.
func TestAutoscaleBesideFixedPeer(t *testing.T) {
	const n = 10
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	leaf := serve.NewWithBackend(engine.New(engine.Options{Workers: 2}))
	ts := httptest.NewServer(leaf.Handler())
	t.Cleanup(func() {
		ts.Close()
		leaf.Close()
	})
	client, err := remote.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Width 1 holds the leaf to one job at a time. The leaf can drain
	// the queue between two ticks, but the held job on the pool's one
	// local slot keeps utilization at 1/2 until the loop has grown the
	// pool, so an up threshold of 0.5 makes the growth certain.
	b, a := fastScaler(t, engine.AutoscalerOptions{
		BalancerOptions: engine.BalancerOptions{Width: 1},
		Min:             1, Max: 3,
		Engine:      engine.Options{Workers: 1},
		UpThreshold: 0.5,
	}, client)

	scenariotest.Check(t, b, burstJobs(t, a, n), want,
		scenariotest.RenderRows)
	if a.ScaleUps() == 0 {
		t.Fatal("burst produced no scale-up events to shrink back from")
	}

	waitForScaler(t, "the pool to shrink to its minimum", func() bool {
		a.ScaleNow()
		return a.ScaleState().ActiveShards == 1
	})
	if a.ScaleNow() {
		t.Error("ScaleNow shrank a pool already at its minimum beside a fixed member")
	}
	sawLeaf := false
	for _, h := range b.Health() {
		if h.Name != ts.URL {
			continue
		}
		sawLeaf = true
		if h.Retired || !h.Healthy {
			t.Errorf("fixed leaf scorecard %+v, want healthy and never retired", h)
		}
		if h.Dispatched == 0 {
			t.Error("fixed leaf carried no jobs")
		}
	}
	if !sawLeaf {
		t.Errorf("no scorecard for the fixed leaf %s in %+v", ts.URL, b.Health())
	}

	// The shrunken pool and its leaf serve the suite identically.
	scenariotest.Check(t, b, scenariotest.BenchJobs(t, n), want,
		scenariotest.RenderRows)
}
