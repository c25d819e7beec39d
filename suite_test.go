// Facade tests for the concurrent batch-evaluation surface: the engine
// re-exports, New-built evaluators, and the SuiteJobs batch.
package art9_test

import (
	"context"
	"testing"
	"time"

	art9 "repro"
)

// TestFacadeSuiteRun drives the §V-A suite through a New-built
// evaluator and checks every workload's concurrent outcome against the
// serial runner.
func TestFacadeSuiteRun(t *testing.T) {
	ev, err := art9.New()
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()

	results, err := ev.Run(context.Background(), art9.SuiteJobs())
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]*art9.Outcome{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("workload %s: %v", r.ID, r.Err)
		}
		o, ok := r.Value.(*art9.Outcome)
		if !ok {
			t.Fatalf("workload %s: value %T, want *Outcome", r.ID, r.Value)
		}
		all[r.ID] = o
	}
	for _, w := range art9.Benchmarks() {
		o, ok := all[w.Name]
		if !ok {
			t.Fatalf("suite result missing workload %s", w.Name)
		}
		serial, err := art9.RunBenchmark(w)
		if err != nil {
			t.Fatal(err)
		}
		if o.Checksum != serial.Checksum || o.ART9Cycles != serial.ART9Cycles {
			t.Errorf("%s: concurrent (checksum %d, cycles %d) != serial (checksum %d, cycles %d)",
				w.Name, o.Checksum, o.ART9Cycles, serial.Checksum, serial.ART9Cycles)
		}
	}
}

// TestFacadeEngine runs the suite batch on a bare local Engine — every
// Evaluator accepts the same jobs — then submits a custom closure job
// on the engine's own channel API.
func TestFacadeEngine(t *testing.T) {
	eng := art9.NewEngine(art9.EngineOptions{Workers: 2, JobTimeout: time.Minute})
	defer eng.Close()

	jobs := art9.SuiteJobs()
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(art9.Benchmarks()) {
		t.Fatalf("suite returned %d results, want %d", len(results), len(art9.Benchmarks()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("workload %s: %v", r.ID, r.Err)
		}
	}
	if s := eng.Stats(); s.Completed != uint64(len(results)) {
		t.Errorf("engine stats %+v, want %d completed", s, len(results))
	}

	r := <-eng.Submit(context.Background(), art9.EngineJob{
		ID: "custom",
		Fn: func(context.Context) (any, error) { return 7, nil },
	})
	if r.Err != nil || r.Value.(int) != 7 {
		t.Fatalf("custom engine job result %+v", r)
	}
}

// TestFacadeSuiteStream consumes the suite as a completion-order stream
// and checks it yields exactly one successful *Outcome per workload.
func TestFacadeSuiteStream(t *testing.T) {
	ev, err := art9.New(art9.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()

	seen := map[string]bool{}
	for r := range ev.Stream(context.Background(), art9.SuiteJobs()) {
		if r.Err != nil {
			t.Fatalf("workload %s: %v", r.ID, r.Err)
		}
		if _, ok := r.Value.(*art9.Outcome); !ok {
			t.Fatalf("workload %s: value %T, want *Outcome", r.ID, r.Value)
		}
		seen[r.ID] = true
	}
	if len(seen) != len(art9.Benchmarks()) {
		t.Fatalf("stream yielded %d workloads, want %d", len(seen), len(art9.Benchmarks()))
	}
}

// TestFacadeShardSet builds a sharded evaluator through New — a
// Balancer over two local engines — and checks submission-order results
// and summed stats across the shards.
func TestFacadeShardSet(t *testing.T) {
	ev, err := art9.New(art9.WithShards(2), art9.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if _, ok := ev.(*art9.Balancer); !ok {
		t.Fatalf("New(WithShards(2)) = %T, want *Balancer", ev)
	}

	jobs := []art9.EngineJob{
		{ID: "a", Fn: func(context.Context) (any, error) { return 1, nil }},
		{ID: "b", Fn: func(context.Context) (any, error) { return 2, nil }},
		{ID: "c", Fn: func(context.Context) (any, error) { return 3, nil }},
	}
	results, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i+1 {
			t.Errorf("result %d = %+v, want value %d", i, r, i+1)
		}
	}
	if tot := ev.Stats(); tot.Submitted != 3 {
		t.Errorf("Stats %+v, want 3 submitted", tot)
	}
}
