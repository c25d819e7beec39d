package engine_test

// BenchmarkBalancerDispatch measures the Balancer's own placement cost:
// no-op closure jobs over two 2-worker local engines, so the numbers are
// slot acquisition, chunk assembly, attempt book-keeping and the engines'
// submit path — not evaluation. The 10,000-job cases expose any cost
// that grows faster than the batch. Run with -benchmem.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
)

func BenchmarkBalancerDispatch(b *testing.B) {
	for _, size := range []int{16, 10000} {
		for _, chunk := range []int{0, 4} {
			mode := fmt.Sprintf("chunk=%d", chunk)
			if chunk == 0 {
				mode = "per-job"
			}
			b.Run(fmt.Sprintf("jobs=%d/%s", size, mode), func(b *testing.B) {
				bal := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, Chunk: chunk},
					engine.New(engine.Options{Workers: 2}),
					engine.New(engine.Options{Workers: 2}))
				defer bal.Close()
				jobs := make([]engine.Job, size)
				for i := range jobs {
					jobs[i] = engine.Job{ID: fmt.Sprintf("noop-%d", i),
						Fn: func(context.Context) (any, error) { return nil, nil }}
				}

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rs, err := bal.Run(context.Background(), jobs)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range rs {
						if r.Err != nil {
							b.Fatalf("job %s failed: %v", r.ID, r.Err)
						}
					}
				}
			})
		}
	}
}
