package remote_test

// BenchmarkRemoteDispatch quantifies the wire cost chunking amortizes:
// per-job dispatch (chunk=0, a chunk of one) issues one acknowledged
// /v1/suite request per job, chunked dispatch one per chunk.
// The peer is a cheap counting stub so the numbers isolate dispatch
// overhead — HTTP round trips, request encoding, row scanning — from
// evaluation time. Run with -benchmem; reqs/op is reported per run so
// the CI benchmark smoke tracks the wire trajectory.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/remote"
)

func BenchmarkRemoteDispatch(b *testing.B) {
	for _, size := range []int{10, 100} {
		for _, chunk := range []int{0, 8, 32} {
			mode := fmt.Sprintf("chunk=%d", chunk)
			if chunk == 0 {
				mode = "per-job"
			}
			b.Run(fmt.Sprintf("suite=%d/%s", size, mode), func(b *testing.B) {
				var requests atomic.Int64
				ts := httptest.NewServer(countingPeer(&requests))
				defer ts.Close()
				c, err := remote.New(ts.URL)
				if err != nil {
					b.Fatal(err)
				}
				bal := engine.NewBalancer(engine.BalancerOptions{
					HealthInterval: -1, Width: 64, Chunk: chunk,
				}, c)
				defer bal.Close()
				jobs := chunkSuite(size)

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
				b.StopTimer()
				b.ReportMetric(float64(requests.Load())/float64(b.N), "reqs/op")
			})
		}
	}
}
