package engine_test

// BenchmarkEngineDispatch measures a lone Engine's own dispatch cost:
// no-op closure jobs on a 2-worker engine, so the numbers are queueing,
// hand-off to the workers and result collection — not evaluation. The
// cached case answers 7 of 8 jobs from a map-backed result cache, so it
// shows the lookup path beside one worker run. The balancer cases run
// the same batches through a Balancer whose one member is such an
// engine: their gap to run/jobs=1 and run/jobs=16 is what placement,
// chunk attempts and health book-keeping add to a lone engine. Run with
// -benchmem.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
)

// mapCache is a read-only ResultCache: specs present in the map hit,
// every other spec misses, and nothing is stored, so the same jobs hit
// and miss alike on every iteration.
type mapCache map[any]any

func (c mapCache) Lookup(_ context.Context, spec any) (any, bool) {
	v, ok := c[spec]
	return v, ok
}

func (mapCache) Store(context.Context, any, any) {}

func noopJobs(n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		jobs[i] = engine.Job{ID: fmt.Sprintf("noop-%d", i),
			Fn: func(context.Context) (any, error) { return nil, nil }}
	}
	return jobs
}

func BenchmarkEngineDispatch(b *testing.B) {
	run := func(e engine.Evaluator, jobs []engine.Job) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := e.Run(context.Background(), jobs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rs {
					if r.Err != nil {
						b.Fatalf("job %s failed: %v", r.ID, r.Err)
					}
				}
			}
		}
	}
	stream := func(e *engine.Engine, jobs []engine.Job) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for r := range e.Stream(context.Background(), jobs) {
					if r.Err != nil {
						b.Fatalf("job %s failed: %v", r.ID, r.Err)
					}
					n++
				}
				if n != len(jobs) {
					b.Fatalf("stream yielded %d results, want %d", n, len(jobs))
				}
			}
		}
	}

	e := engine.New(engine.Options{Workers: 2})
	defer e.Close()
	for _, size := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("run/jobs=%d", size), run(e, noopJobs(size)))
		b.Run(fmt.Sprintf("stream/jobs=%d", size), stream(e, noopJobs(size)))
	}

	bal := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		engine.New(engine.Options{Workers: 2}))
	defer bal.Close()
	for _, size := range []int{1, 16} {
		b.Run(fmt.Sprintf("balancer/run/jobs=%d", size), run(bal, noopJobs(size)))
	}

	cache := mapCache{}
	jobs := noopJobs(8)
	for i := range jobs {
		jobs[i].Spec = jobs[i].ID
		if i > 0 {
			cache[jobs[i].ID] = "cached"
		}
	}
	cached := engine.New(engine.Options{Workers: 2, Cache: cache})
	defer cached.Close()
	b.Run("stream/jobs=8/hits=7", stream(cached, jobs))
}
