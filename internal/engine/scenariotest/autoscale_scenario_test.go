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

// fastScaler builds an autoscaler whose background loop re-evaluates
// every millisecond, with no cooldown unless opts sets one, so a burst
// that stays queued triggers scale events within the run.
func fastScaler(t *testing.T, opts engine.AutoscalerOptions) *engine.Autoscaler {
	t.Helper()
	opts.Interval = time.Millisecond
	if opts.Cooldown == 0 {
		opts.Cooldown = -1
	}
	a := engine.NewAutoscaler(opts)
	t.Cleanup(func() { a.Close() })
	return a
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

	a := fastScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 3,
		Engine: engine.Options{Workers: 1},
	})

	scenariotest.Check(t, a, burstJobs(t, a, n), want,
		scenariotest.RenderRows, scenariotest.Identical)

	if got := a.ScaleUps(); got == 0 {
		t.Error("burst produced no scale-up events")
	}
	if got := a.Size(); got < 2 {
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

	a := fastScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 3,
		Engine: engine.Options{Workers: 1},
	})

	scenariotest.Check(t, a, burstJobs(t, a, n), want,
		scenariotest.RenderRows, scenariotest.Identical)
	if a.ScaleUps() == 0 {
		t.Fatal("burst produced no scale-up events to shrink back from")
	}

	// The suite is done: the loop now sees an idle pool and retires
	// members down to the floor.
	waitForScaler(t, "the pool to shrink to its minimum", func() bool {
		return a.ScaleDowns() > 0 && a.ScaleState().ActiveShards == 1
	})
	retired := 0
	for _, h := range a.Health() {
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
	scenariotest.Check(t, a, scenariotest.BenchJobs(t, n), want,
		scenariotest.RenderRows, scenariotest.Identical)
}

// TestAutoscaleStandbyBurst pins the standby scenario across the HTTP
// stack: a pool capped at one local shard recruits a real art9-serve
// peer under burst, and the merged rows stay byte-identical to the
// healthy reference even though some jobs ran remotely.
func TestAutoscaleStandbyBurst(t *testing.T) {
	const n = 10
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	peer := serve.NewWithBackend(engine.New(engine.Options{Workers: 2, PrivateCaches: true}))
	ts := httptest.NewServer(peer.Handler())
	t.Cleanup(func() {
		ts.Close()
		peer.Close()
	})

	// A cooldown longer than the burst allows one scale event during it:
	// the peer recruited for the burst is neither retired nor recruited
	// again before the suite ends, so it holds one scorecard.
	a := fastScaler(t, engine.AutoscalerOptions{
		Min: 1, Max: 1,
		Engine:   engine.Options{Workers: 1},
		Cooldown: time.Minute,
		Standby: []engine.StandbyBackend{{
			Name: "standby-peer",
			Dial: func() (engine.Evaluator, error) { return remote.New(ts.URL) },
		}},
	})

	scenariotest.Check(t, a, burstJobs(t, a, n), want,
		scenariotest.RenderRows, scenariotest.Identical)

	if a.ScaleUps() == 0 {
		t.Error("burst never recruited the standby peer")
	}
	sawStandby := false
	for _, h := range a.Health() {
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
