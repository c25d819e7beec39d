package scenariotest_test

// The scenario matrix: every Evaluator topology × every fault script,
// one harness. Each cell builds its fleet around a scripted
// faulttest.Flaky backend, runs the same job set through Run and
// Stream, and pins the contract every topology makes — a failover front
// (Balancer, per-job or chunked, local or across the HTTP stack) merges
// byte-identical to a healthy single-engine run, each job exactly once.
// Run under -race in CI, twice (-count=2).

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/faulttest"
	"repro/internal/engine/scenariotest"
	"repro/internal/remote"
	"repro/internal/serve"
)

// localEngine is the healthy survivor every fleet includes.
func localEngine() *engine.Engine {
	return engine.New(engine.Options{Workers: 2})
}

// serveClient wraps a backend in an httptest art9-serve instance and
// returns a remote client speaking /v1 to it — the HTTP hop of the
// remote topologies. The server and client are torn down with the test;
// the server owns (and closes) the backend.
func serveClient(t *testing.T, backend engine.Evaluator) *remote.Client {
	t.Helper()
	s := serve.NewWithBackend(backend)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	client, err := remote.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestScenarioMatrix(t *testing.T) {
	faults := []struct {
		name   string
		script func(f *faulttest.Flaky)
	}{
		{name: "healthy", script: func(f *faulttest.Flaky) {}},
		// Width 2 guarantees the initial dispatch burst hands the dying
		// backend two jobs — one executes, the second trips the
		// scripted death mid-suite under any scheduling.
		{name: "dies-mid-suite", script: func(f *faulttest.Flaky) { f.Width(2).FailAfter(1, nil) }},
		{name: "dead-on-arrival", script: func(f *faulttest.Flaky) { f.FailAfter(0, nil) }},
		// A slow-but-correct peer: every job eventually succeeds.
		{name: "slow-peer", script: func(f *faulttest.Flaky) { f.Width(1).Delay(20 * time.Millisecond) }},
	}

	topologies := []struct {
		name string
		// build assembles the evaluator under test around the scripted
		// faulty backend (nil for topologies without a faulty slot).
		build func(t *testing.T, flaky *faulttest.Flaky) engine.Evaluator
		// faultless topologies have no slot for the scripted backend
		// and only run the healthy cell.
		faultless bool
	}{
		{name: "engine", faultless: true,
			build: func(t *testing.T, _ *faulttest.Flaky) engine.Evaluator {
				return localEngine()
			}},
		{name: "balancer",
			build: func(t *testing.T, flaky *faulttest.Flaky) engine.Evaluator {
				return engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
					flaky, localEngine())
			}},
		{name: "balancer-chunked",
			build: func(t *testing.T, flaky *faulttest.Flaky) engine.Evaluator {
				return engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, Chunk: 4},
					flaky, localEngine())
			}},
		// The faulty backend sits on the far side of an HTTP hop: its
		// failures reach the balancer as typed NDJSON rows and severed
		// streams, not direct errors.
		{name: "remote",
			build: func(t *testing.T, flaky *faulttest.Flaky) engine.Evaluator {
				return engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
					serveClient(t, flaky), localEngine())
			}},
		{name: "remote-chunked",
			build: func(t *testing.T, flaky *faulttest.Flaky) engine.Evaluator {
				return engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, Chunk: 4},
					serveClient(t, flaky), localEngine())
			}},
		// A three-way mix: scripted backend, local pool, and a healthy
		// peer behind HTTP, all under one chunked failover front.
		{name: "mixed-chunked",
			build: func(t *testing.T, flaky *faulttest.Flaky) engine.Evaluator {
				return engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, Chunk: 4},
					flaky, localEngine(), serveClient(t, localEngine()))
			}},
	}

	const n = 10
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	for _, topo := range topologies {
		for _, fault := range faults {
			topo, fault := topo, fault
			if topo.faultless && fault.name != "healthy" {
				continue
			}
			t.Run(topo.name+"/"+fault.name, func(t *testing.T) {
				t.Parallel()
				flaky := faulttest.New("flaky")
				fault.script(flaky)
				ev := topo.build(t, flaky)
				t.Cleanup(func() { ev.Close() })

				scenariotest.Check(t, ev, scenariotest.BenchJobs(t, n), want,
					scenariotest.RenderRows)
			})
		}
	}
}

// TestChunkedBalancerRecordsResumes pins the tentpole's counters
// through the harness: a chunked sweep over a backend that dies
// mid-chunk stays byte-identical to healthy AND books the severed
// chunk — nonzero chunk and chunk-resume counters, with the resumed
// jobs appearing as failovers on the dead backend's scorecard.
func TestChunkedBalancerRecordsResumes(t *testing.T) {
	const n = 12
	jobs := scenariotest.BenchJobs(t, n)
	want := scenariotest.ReferenceRows(t, jobs)

	flaky := faulttest.New("dying-chunk-peer").Width(4).FailAfter(1, nil)
	b := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, Chunk: 4},
		flaky, localEngine())
	t.Cleanup(func() { b.Close() })

	scenariotest.Check(t, b, scenariotest.BenchJobs(t, n), want,
		scenariotest.RenderRows)

	if b.Chunks() == 0 {
		t.Error("chunked balancer issued no chunks")
	}
	if b.ChunkResumes() == 0 {
		t.Error("mid-chunk death recorded no chunk resumes")
	}
	var failovers uint64
	for _, h := range b.Health() {
		failovers += h.Failovers
		if h.Name == "dying-chunk-peer" {
			if h.Chunks == 0 {
				t.Error("dying backend's scorecard shows no chunks")
			}
			if h.ChunkResumes == 0 {
				t.Error("dying backend's scorecard shows no chunk resumes")
			}
			if h.Healthy {
				t.Error("dying backend still marked healthy after a severed chunk")
			}
		}
	}
	if failovers == 0 {
		t.Error("no failovers booked for the resumed chunk jobs")
	}
}
