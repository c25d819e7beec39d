package remote_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

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

// TestNewBackendWithShapes pins the two shapes NewBackendWith builds: a
// bare Engine for one local shard, no peers and no autoscaling, and a
// Balancer over every backend of any other topology (carrying the
// result cache when one is configured), with a scaling policy attached
// exactly when autoscale bounds are set.
func TestNewBackendWithShapes(t *testing.T) {
	a, b := "http://peer-a.invalid:9009", "http://peer-b.invalid:9009"
	for _, tc := range []struct {
		name   string
		cfg    remote.BackendConfig
		want   string // the front's type
		size   int    // Balancer members
		scaled bool   // the Balancer is an elastic pool
	}{
		{"default", remote.BackendConfig{}, "*engine.Engine", 0, false},
		{"one shard", remote.BackendConfig{Shards: 1}, "*engine.Engine", 0, false},
		{"two shards", remote.BackendConfig{Shards: 2}, "*engine.Balancer", 2, false},
		{"one peer", remote.BackendConfig{Peers: []string{a}}, "*engine.Balancer", 1, false},
		{"two peers", remote.BackendConfig{Peers: []string{a, b}}, "*engine.Balancer", 2, false},
		{"shard and peer", remote.BackendConfig{Shards: 1, Peers: []string{a}}, "*engine.Balancer", 2, false},
		{"autoscale", remote.BackendConfig{AutoscaleMin: 1, AutoscaleMax: 2, ScaleInterval: -1}, "*engine.Balancer", 1, true},
		{"autoscale beside a peer", remote.BackendConfig{AutoscaleMin: 2, AutoscaleMax: 3, ScaleInterval: -1,
			Peers: []string{a}, Chunk: 4}, "*engine.Balancer", 3, true},
	} {
		for _, cache := range []bool{false, true} {
			cfg := tc.cfg
			cfg.Cache = cache
			cfg.Workers = 1
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
				if got := bal.Autoscaler() != nil; got != tc.scaled {
					t.Errorf("%s: Balancer has a scaling policy: %v, want %v", tc.name, got, tc.scaled)
				}
				if got := bal.Chunk(); got != max(tc.cfg.Chunk, 1) {
					t.Errorf("%s: Balancer chunk %d, want %d", tc.name, got, max(tc.cfg.Chunk, 1))
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
		cfg.Workers = 2
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

// TestFailedBuildLeaksNoGoroutine pins that a build refused over a bad
// peer or standby URL leaves nothing running: the cache tier, whose fill
// worker starts when CachePeers is set, is built only after every URL
// has parsed. It covers NewBackendWith and serve.New, which builds
// through it.
func TestFailedBuildLeaksNoGoroutine(t *testing.T) {
	cachePeers := []string{"http://127.0.0.1:9"}
	builds := map[string]func() error{
		"NewBackendWith bad standby": func() error {
			_, err := remote.NewBackendWith(remote.BackendConfig{
				AutoscaleMax: 2, StandbyPeers: []string{"ftp://bad"}, Cache: true, CachePeers: cachePeers})
			return err
		},
		"serve.New bad peer": func() error {
			_, err := serve.New(serve.Config{Cache: true, CachePeers: cachePeers, Peers: []string{"ftp://bad"}})
			return err
		},
	}
	for name, build := range builds {
		before := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			if err := build(); err == nil {
				t.Fatalf("%s: built, want a URL error", name)
			}
		}
		// Goroutines of earlier tests may still be exiting; a leak never does.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: five failed builds raised the goroutine count from %d to %d", name, before, after)
		}
	}
}
