package bench

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/rescache"
	"repro/internal/xlate"
)

// warmManifest is a two-job manifest over the built-in suite with both
// technologies — the shape the cache-smoke CI job replays.
func warmManifest(t *testing.T) ([]engine.Job, *Manifest) {
	t.Helper()
	m, err := ParseManifest([]byte(`{
		"technologies": ["cntfet32", "stratixv"],
		"jobs": [
			{"name": "bubble", "workload": "bubble"},
			{"name": "dhry", "workload": "dhrystone"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jobs, m
}

func TestResultCacheRoundTripRendersIdentically(t *testing.T) {
	jobs, m := warmManifest(t)
	techs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewResultCache(rescache.NewLRU(0, 0))

	cold := engine.New(engine.Options{Workers: 2, PrivateCaches: true, Cache: cache})
	defer cold.Close()
	coldRes, err := cold.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Puts != uint64(len(jobs)) || st.Hits != 0 {
		t.Fatalf("cold stats %+v, want %d puts / 0 hits", st, len(jobs))
	}

	// A fresh engine sharing the store answers every job from cache.
	warm := engine.New(engine.Options{Workers: 2, PrivateCaches: true, Cache: cache})
	defer warm.Close()
	warmRes, err := warm.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != uint64(len(jobs)) {
		t.Fatalf("warm stats %+v, want %d hits", st, len(jobs))
	}

	for i := range jobs {
		if warmRes[i].Worker != -1 {
			t.Fatalf("job %s: warm Worker = %d, want -1", jobs[i].ID, warmRes[i].Worker)
		}
		cr := JobReportOf(coldRes[i], techs)
		wr := JobReportOf(warmRes[i], techs)
		// The replayed row matches the computed one on everything that
		// describes the work — name, verdict, metrics, implementations.
		// Elapsed/worker are run-local by design.
		cr.ElapsedMS, wr.ElapsedMS = 0, 0
		cr.Worker, wr.Worker = 0, 0
		if !reflect.DeepEqual(cr, wr) {
			cj, _ := json.Marshal(cr)
			wj, _ := json.Marshal(wr)
			t.Fatalf("job %s: cached row diverges:\ncold %s\nwarm %s", jobs[i].ID, cj, wj)
		}
		if wr.Name != jobs[i].ID {
			t.Fatalf("job %s: replayed name %q", jobs[i].ID, wr.Name)
		}
		if wr.Metrics == nil || len(wr.Implementations) != len(techs) {
			t.Fatalf("job %s: replayed row missing metrics or implementations", jobs[i].ID)
		}
	}
}

func TestResultCacheKeying(t *testing.T) {
	base := &JobSpec{
		Job:          ManifestJob{Name: "a", Source: "LDI T1, 1\nHALT", Iterations: 1},
		Technologies: []string{"cntfet32"},
	}
	k1, ok := resultKey(base)
	if !ok {
		t.Fatal("base spec did not key")
	}

	// Name and timeout are excluded: renamed/re-bounded jobs hit.
	renamed := *base
	renamed.Job.Name, renamed.Job.TimeoutMS = "other", 500
	if k2, _ := resultKey(&renamed); k2 != k1 {
		t.Error("rename/timeout changed the key")
	}

	// Source, iterations, and technologies all participate.
	for _, mutate := range []func(*JobSpec){
		func(s *JobSpec) { s.Job.Source = "LDI T1, 2\nHALT" },
		func(s *JobSpec) { s.Job.Iterations = 2 },
		func(s *JobSpec) { s.Technologies = []string{"stratixv"} },
		func(s *JobSpec) { s.Technologies = nil },
	} {
		mut := *base
		mutate(&mut)
		if k2, ok := resultKey(&mut); !ok || k2 == k1 {
			t.Errorf("mutation did not change the key (%+v)", mut)
		}
	}

	// File jobs and empty programs are not content-addressable.
	if _, ok := resultKey(&JobSpec{Job: ManifestJob{File: "prog.s"}}); ok {
		t.Error("file spec keyed; a path is not content")
	}
	if _, ok := resultKey(&JobSpec{}); ok {
		t.Error("empty spec keyed")
	}
	if _, ok := resultKey(nil); ok {
		t.Error("nil spec keyed")
	}

	// An unresolvable technology name makes the spec uncacheable — the
	// key covers model content, and there is no model to fingerprint.
	unknown := *base
	unknown.Technologies = []string{"no-such-tech"}
	if _, ok := resultKey(&unknown); ok {
		t.Error("spec with unknown technology keyed")
	}
}

// TestResultKeyTechnologyListCollision is the regression test for the
// \x00-join bug: ["a\x00b"] and ["a","b"] collapsed into one joined
// key part and collided. Each technology is now its own
// length-prefixed part pair, so the two lists must derive distinct
// keys.
func TestResultKeyTechnologyListCollision(t *testing.T) {
	for _, name := range []string{"a", "b", "a\x00b"} {
		t.Cleanup(RegisterTechnology(name, gate.CNTFET32))
	}
	spec := func(techs ...string) *JobSpec {
		return &JobSpec{
			Job:          ManifestJob{Source: "LDI T1, 1\nHALT", Iterations: 1},
			Technologies: techs,
		}
	}
	joined, ok1 := resultKey(spec("a\x00b"))
	split, ok2 := resultKey(spec("a", "b"))
	if !ok1 || !ok2 {
		t.Fatal("collision specs did not key")
	}
	if joined == split {
		t.Fatal(`["a\x00b"] and ["a","b"] derive the same key`)
	}
}

// TestResultKeyCoversTechnologyContent pins the tentpole: editing one
// number in a technology table — here a single cell DelayPs — must
// change every key derived under that technology's name, so a stale
// row can never replay as a hit.
func TestResultKeyCoversTechnologyContent(t *testing.T) {
	spec := &JobSpec{
		Job:          ManifestJob{Source: "LDI T1, 1\nHALT", Iterations: 1},
		Technologies: []string{"cntfet32"},
	}
	before, ok := resultKey(spec)
	if !ok {
		t.Fatal("spec did not key")
	}
	restore := RegisterTechnology("cntfet32", func() *gate.Technology {
		tech := gate.CNTFET32()
		props := make(map[gate.CellKind]gate.CellProps, len(tech.Props))
		for k, v := range tech.Props {
			props[k] = v
		}
		p := props[gate.TFA]
		p.DelayPs++
		props[gate.TFA] = p
		tech.Props = props
		return tech
	})
	defer restore()
	after, ok := resultKey(spec)
	if !ok {
		t.Fatal("edited spec did not key")
	}
	if before == after {
		t.Fatal("editing a DelayPs did not change the result key")
	}
}

func TestResultCacheRejectsCorruptAndFailedEntries(t *testing.T) {
	store := rescache.NewLRU(0, 0)
	cache := NewResultCache(store)
	ctx := context.Background()
	spec := &JobSpec{Job: ManifestJob{Source: "LDI T1, 1\nHALT", Iterations: 1}}

	// Corrupt bytes under the right key degrade to a miss, are counted,
	// and are evicted on first read — left in place they would re-fail
	// on every lookup forever.
	key, _ := resultKey(spec)
	store.Put(ctx, key, []byte("not json"))
	if _, ok := cache.Lookup(ctx, spec); ok {
		t.Fatal("corrupt entry answered a lookup")
	}
	if _, ok := store.Get(ctx, key); ok {
		t.Fatal("corrupt entry survived its first read")
	}
	if got := cache.Stats().Corrupt; got != 1 {
		t.Fatalf("Corrupt = %d, want 1", got)
	}

	// A stored-but-not-OK row is corrupt too: evicted and counted.
	raw, _ := json.Marshal(&JobReport{OK: false})
	store.Put(ctx, key, raw)
	if _, ok := cache.Lookup(ctx, spec); ok {
		t.Fatal("non-OK entry answered a lookup")
	}
	if _, ok := store.Get(ctx, key); ok {
		t.Fatal("non-OK entry survived its first read")
	}
	if got := cache.Stats().Corrupt; got != 2 {
		t.Fatalf("Corrupt = %d, want 2", got)
	}

	// Failed rows are refused at store time.
	cache.Store(ctx, spec, &JobReport{OK: false, Error: "boom"})
	if _, ok := cache.Lookup(ctx, spec); ok {
		t.Fatal("failed row was cached")
	}

	// A peer row stores normalized: name/elapsed/worker scrubbed.
	cache.Store(ctx, spec, &JobReport{
		Name: "peer-name", OK: true, ElapsedMS: 12.5, Worker: 3,
		Metrics: &MetricsReport{Checksum: 7},
	})
	v, ok := cache.Lookup(ctx, spec)
	if !ok {
		t.Fatal("stored peer row missed")
	}
	jr := JobReportOf(engine.Result{Value: v}, nil)
	if jr.Name != "" || jr.ElapsedMS != 0 || jr.Worker != -1 {
		t.Fatalf("peer row not normalized: %+v", jr)
	}
	if jr.Metrics == nil || jr.Metrics.Checksum != 7 {
		t.Fatalf("peer row lost metrics: %+v", jr)
	}
}

// TestTechnologyRegistryConcurrent resolves, fingerprints and keys one
// technology name from many goroutines while another swaps its binding
// between the built-in and an edited model (run it under -race). Every
// answer must belong to one of the two bindings, and each caller edits
// the model it was handed without reaching the registry or any other
// caller.
func TestTechnologyRegistryConcurrent(t *testing.T) {
	const name = "registry-race"
	edited := func() *gate.Technology {
		tech := gate.CNTFET32()
		tech.ClkQPs++
		return tech
	}
	t.Cleanup(RegisterTechnology(name, gate.CNTFET32))
	spec := &JobSpec{
		Job:          ManifestJob{Source: "LDI T1, 1\nHALT", Iterations: 1},
		Technologies: []string{name},
	}
	keyA, _ := resultKey(spec)
	restore := RegisterTechnology(name, edited)
	keyB, _ := resultKey(spec)
	restore()
	fpA, fpB := gate.CNTFET32().Fingerprint(), edited().Fingerprint()
	if keyA == keyB || fpA == fpB {
		t.Fatal("the two bindings are indistinguishable; the test proves nothing")
	}

	shared := gate.StratixVEmulation() // fingerprinted first by many goroutines at once
	wantShared := gate.StratixVEmulation().Fingerprint()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			RegisterTechnology(name, edited)()
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if fp := shared.Fingerprint(); fp != wantShared {
					t.Errorf("shared model fingerprint %s, want %s", fp, wantShared)
					return
				}
				techs, err := Technologies([]string{name})
				if err != nil {
					t.Error(err)
					return
				}
				fp := techs[0].Fingerprint()
				if fp != fpA && fp != fpB {
					t.Errorf("handed a model fingerprinting %s, neither binding's", fp)
					return
				}
				p := techs[0].Props[gate.TFA]
				p.DelayPs += float64(i + 1)
				techs[0].Props[gate.TFA] = p
				if techs[0].Fingerprint() == fp {
					t.Error("editing a handed-out model left its fingerprint unchanged")
					return
				}
				if key, ok := resultKey(spec); !ok || (key != keyA && key != keyB) {
					t.Errorf("resultKey = %q, %v; want one of the two bindings' keys", key, ok)
					return
				}
			}
		}()
	}
	wg.Wait()

	techs, err := Technologies([]string{name})
	if err != nil {
		t.Fatal(err)
	}
	if fp := techs[0].Fingerprint(); fp != fpA {
		t.Fatalf("after the swaps the binding fingerprints %s, want the built-in's %s", fp, fpA)
	}
	if key, _ := resultKey(spec); key != keyA {
		t.Fatal("after the swaps the result key is not the built-in's")
	}
}
