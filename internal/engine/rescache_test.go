package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeResultCache is a map-backed ResultCache keyed by the job's Spec
// (a plain string in these tests), counting its traffic.
type fakeResultCache struct {
	mu      sync.Mutex
	m       map[string]any
	lookups int
	hits    int
	stores  int
}

func newFakeResultCache() *fakeResultCache {
	return &fakeResultCache{m: map[string]any{}}
}

func (f *fakeResultCache) Lookup(_ context.Context, spec any) (any, bool) {
	key, ok := spec.(string)
	if !ok {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lookups++
	v, ok := f.m[key]
	if ok {
		f.hits++
	}
	return v, ok
}

func (f *fakeResultCache) Store(_ context.Context, spec any, value any) {
	key, ok := spec.(string)
	if !ok {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	f.m[key] = value
}

func cachedJobs(n int, ran *atomic.Int64) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		id := string(rune('a' + i))
		jobs[i] = Job{
			ID:   id,
			Spec: "spec-" + id,
			Fn: func(context.Context) (any, error) {
				ran.Add(1)
				return "value-" + id, nil
			},
		}
	}
	return jobs
}

func TestEngineResultCacheShortCircuits(t *testing.T) {
	cache := newFakeResultCache()
	e := New(Options{Workers: 2, Cache: cache})
	defer e.Close()
	if e.ResultCache() != ResultCache(cache) {
		t.Fatal("ResultCache accessor does not return the configured cache")
	}

	var ran atomic.Int64
	jobs := cachedJobs(3, &ran)
	ctx := context.Background()

	// Cold run: every job computes and is stored.
	rs, err := e.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("cold run executed %d jobs, want 3", got)
	}
	if cache.stores != 3 {
		t.Fatalf("stores = %d, want 3", cache.stores)
	}

	// Warm run: every job answers from the cache, no Fn runs, and the
	// replayed value matches the computed one.
	warm, err := e.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("warm run executed %d extra jobs, want 0", got-3)
	}
	for i := range warm {
		if warm[i].Err != nil {
			t.Fatalf("warm job %s failed: %v", warm[i].ID, warm[i].Err)
		}
		if warm[i].Value != rs[i].Value {
			t.Fatalf("warm job %s value = %v, want %v", warm[i].ID, warm[i].Value, rs[i].Value)
		}
		if warm[i].Worker != -1 {
			t.Fatalf("warm job %s ran on worker %d, want -1 (cache hit)", warm[i].ID, warm[i].Worker)
		}
	}
	// Hits count as completed: the accounting invariant holds.
	if st := e.Stats(); st.Submitted != 6 || st.Completed != 6 {
		t.Fatalf("stats %+v, want 6 submitted / 6 completed", st)
	}
}

func TestEngineResultCacheSkipsSpeclessAndFailedJobs(t *testing.T) {
	cache := newFakeResultCache()
	e := New(Options{Workers: 1, Cache: cache})
	defer e.Close()

	rs, _ := e.Run(context.Background(), []Job{
		{ID: "nospec", Fn: func(context.Context) (any, error) { return 1, nil }},
		{ID: "fails", Spec: "spec-fails", Fn: func(context.Context) (any, error) {
			return nil, context.DeadlineExceeded
		}},
	})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	if cache.lookups != 1 {
		t.Fatalf("lookups = %d, want 1 (spec-less jobs bypass the cache)", cache.lookups)
	}
	if cache.stores != 0 {
		t.Fatalf("stores = %d, want 0 (failures are never cached)", cache.stores)
	}
}

func TestBalancerResultCacheShortCircuits(t *testing.T) {
	for _, chunk := range []int{0, 4} {
		cache := newFakeResultCache()
		b := NewBalancer(BalancerOptions{Cache: cache, Chunk: chunk, HealthInterval: -1},
			New(Options{Workers: 2}))

		var ran atomic.Int64
		jobs := cachedJobs(6, &ran)
		ctx := context.Background()
		if _, err := b.Run(ctx, jobs); err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 6 {
			t.Fatalf("chunk=%d: cold run executed %d jobs, want 6", chunk, got)
		}
		warm, err := b.Run(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 6 {
			t.Fatalf("chunk=%d: warm run executed %d extra jobs, want 0", chunk, got-6)
		}
		for _, r := range warm {
			if r.Err != nil || r.Worker != -1 {
				t.Fatalf("chunk=%d: warm result %+v, want cache hit", chunk, r)
			}
		}
		if hits := b.CacheHits(); hits != 6 {
			t.Fatalf("chunk=%d: CacheHits = %d, want 6", chunk, hits)
		}
		if b.ResultCache() == nil {
			t.Fatalf("chunk=%d: ResultCache accessor returned nil", chunk)
		}
		b.Close()
	}
}

func TestAutoscalerResultCacheShortCircuits(t *testing.T) {
	cache := newFakeResultCache()
	a := NewAutoscaler(AutoscalerOptions{
		BalancerOptions: BalancerOptions{Cache: cache},
		Min:             1, Max: 1, Interval: -1,
		Engine: Options{Workers: 2},
	})
	defer a.Close()

	var ran atomic.Int64
	jobs := cachedJobs(4, &ran)
	ctx := context.Background()
	if _, err := a.Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	warm, err := a.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("warm run executed %d extra jobs, want 0", got-4)
	}
	for _, r := range warm {
		if r.Err != nil || r.Worker != -1 {
			t.Fatalf("warm result %+v, want cache hit", r)
		}
	}
	if hits := a.CacheHits(); hits != 4 {
		t.Fatalf("CacheHits = %d, want 4", hits)
	}
}
