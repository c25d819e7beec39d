package remote_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/serve"
	"repro/internal/xlate"
)

// leafURL starts an httptest art9-serve leaf for the test's lifetime.
func leafURL(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// TestNewBackendWithShapes pins the three shapes NewBackendWith builds:
// a bare Engine for one local shard and no peers, a Balancer over every
// backend of any other fixed topology (carrying the result cache when
// one is configured), and the Autoscaler for autoscale bounds.
func TestNewBackendWithShapes(t *testing.T) {
	a, b := "http://peer-a.invalid:9009", "http://peer-b.invalid:9009"
	for _, tc := range []struct {
		name string
		cfg  remote.BackendConfig
		want string // the front's type
		size int    // Balancer members
	}{
		{"default", remote.BackendConfig{}, "*engine.Engine", 0},
		{"one shard", remote.BackendConfig{Shards: 1}, "*engine.Engine", 0},
		{"two shards", remote.BackendConfig{Shards: 2}, "*engine.Balancer", 2},
		{"one peer", remote.BackendConfig{Peers: []string{a}}, "*engine.Balancer", 1},
		{"two peers", remote.BackendConfig{Peers: []string{a, b}}, "*engine.Balancer", 2},
		{"shard and peer", remote.BackendConfig{Shards: 1, Peers: []string{a}}, "*engine.Balancer", 2},
		{"autoscale", remote.BackendConfig{AutoscaleMin: 1, AutoscaleMax: 2, ScaleInterval: -1}, "*engine.Autoscaler", 0},
	} {
		for _, cache := range []bool{false, true} {
			cfg := tc.cfg
			cfg.Cache = cache
			cfg.Engine.Workers = 1
			ev, err := remote.NewBackendWith(cfg)
			if err != nil {
				t.Fatalf("%s (cache %v): %v", tc.name, cache, err)
			}
			if got := fmt.Sprintf("%T", ev); got != tc.want {
				t.Errorf("%s: built %s, want %s", tc.name, got, tc.want)
			}
			if bal, ok := ev.(*engine.Balancer); ok {
				if bal.Size() != tc.size {
					t.Errorf("%s: Balancer of %d backends, want %d", tc.name, bal.Size(), tc.size)
				}
				if got := bal.ResultCache() != nil; got != cache {
					t.Errorf("%s: Balancer carries a result cache: %v, want %v", tc.name, got, cache)
				}
			}
			if got := engine.ResultCacheOf(ev) != nil; got != cache {
				t.Errorf("%s: result cache reachable: %v, want %v", tc.name, got, cache)
			}
			if err := ev.Close(); err != nil {
				t.Errorf("%s: Close: %v", tc.name, err)
			}
		}
	}
}

func TestBackendCacheShortCircuitsEveryTopology(t *testing.T) {
	jobs := cacheManifestJobs(t)
	leaf := leafURL(t)
	for _, tc := range []struct {
		name string
		cfg  remote.BackendConfig
	}{
		{"plain engine", remote.BackendConfig{Cache: true}},
		{"shard set", remote.BackendConfig{Cache: true, Shards: 2}},
		{"failover front", remote.BackendConfig{Cache: true, Shards: 2, HealthInterval: -1}},
		{"chunked failover", remote.BackendConfig{Cache: true, Shards: 2, Chunk: 2}},
		{"autoscale front", remote.BackendConfig{Cache: true, AutoscaleMin: 1, AutoscaleMax: 2}},
		// Proxy-only fronts: the cache sits on the Balancer over the
		// remote clients, which is also what closes it.
		{"proxy-only front", remote.BackendConfig{Cache: true, Peers: []string{leaf}}},
		{"proxy-only fleet", remote.BackendConfig{Cache: true, Peers: []string{leaf, leaf}}},
	} {
		cfg := tc.cfg
		cfg.Engine.Workers = 2
		ev, err := remote.NewBackendWith(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		adapter, ok := engine.ResultCacheOf(ev).(*bench.ResultCache)
		if !ok {
			t.Fatalf("%s: no ResultCache reachable from the topology", tc.name)
		}
		ctx := context.Background()
		if _, err := ev.Run(ctx, jobs); err != nil {
			t.Fatalf("%s: cold run: %v", tc.name, err)
		}
		warm, err := ev.Run(ctx, jobs)
		if err != nil {
			t.Fatalf("%s: warm run: %v", tc.name, err)
		}
		for _, r := range warm {
			if r.Err != nil {
				t.Fatalf("%s: warm job %s failed: %v", tc.name, r.ID, r.Err)
			}
			if r.Worker != -1 {
				t.Fatalf("%s: warm job %s ran on worker %d, want cache hit", tc.name, r.ID, r.Worker)
			}
		}
		st := adapter.Stats()
		if st.Hits != uint64(len(jobs)) || st.Puts != uint64(len(jobs)) {
			t.Fatalf("%s: stats %+v, want %d hits and %d puts", tc.name, st, len(jobs), len(jobs))
		}
		ev.Close()
	}
}

// cacheManifestJobs builds a small spec-carrying batch — cache keys
// require real bench specs, not bare Fns.
func cacheManifestJobs(t *testing.T) []engine.Job {
	t.Helper()
	m, err := bench.ParseManifest([]byte(`{
		"technologies": ["cntfet32"],
		"jobs": [
			{"name": "bubble", "workload": "bubble"},
			{"name": "gemm", "workload": "gemm"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}
