package engine

import (
	"sync"
	"testing"

	"repro/internal/gate"
)

const goodSrc = "LDI T1, 42\nADDI T1, 1\nHALT"

func TestProgramCacheHit(t *testing.T) {
	c := newProgramCache(DefaultProgramCacheEntries, DefaultProgramCacheBytes)
	p1, err := c.Assemble(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Assemble(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Assemble returned a different program; want the memoized one")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestProgramCacheDistinctSources(t *testing.T) {
	c := newProgramCache(DefaultProgramCacheEntries, DefaultProgramCacheBytes)
	p1, err := c.Assemble("LDI T1, 1\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Assemble("LDI T1, 2\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("distinct sources shared one cache entry")
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats %+v, want 2 misses / 2 entries", s)
	}
}

func TestProgramCacheMemoizesErrors(t *testing.T) {
	c := newProgramCache(DefaultProgramCacheEntries, DefaultProgramCacheBytes)
	_, err1 := c.Assemble("NOT AN OPCODE")
	_, err2 := c.Assemble("NOT AN OPCODE")
	if err1 == nil || err2 == nil {
		t.Fatal("invalid source assembled")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("memoized error changed: %v vs %v", err1, err2)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v, want the failure memoized like a success", s)
	}
}

func TestProgramCacheSingleflight(t *testing.T) {
	c := newProgramCache(DefaultProgramCacheEntries, DefaultProgramCacheBytes)
	const n = 32
	progs := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			p, err := c.Assemble(goodSrc)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different program instance", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want exactly one miss for %d concurrent callers", s, n)
	}
}

func TestAnalysisCacheKeying(t *testing.T) {
	c := newAnalysisCache(DefaultAnalysisCacheEntries, DefaultAnalysisCacheBytes)

	// Two independently constructed descriptions of the same
	// technology must share one entry: the key is content, not
	// pointer identity.
	a1 := c.Analyze(gate.CNTFET32())
	a2 := c.Analyze(gate.CNTFET32())
	if a1 != a2 {
		t.Error("identical technologies missed the cache")
	}

	// A different technology gets its own entry.
	a3 := c.Analyze(gate.StratixVEmulation())
	if a3 == a1 {
		t.Error("distinct technologies shared an entry")
	}

	// A modified copy under the same name must NOT collide.
	custom := *gate.CNTFET32()
	custom.ClkQPs *= 2
	a4 := c.Analyze(&custom)
	if a4 == a1 {
		t.Error("modified technology collided with the original")
	}
	if a4.FmaxMHz >= a1.FmaxMHz {
		t.Errorf("doubled clk-q should lower fmax: %v vs %v", a4.FmaxMHz, a1.FmaxMHz)
	}

	if s := c.Stats(); s.Hits != 1 || s.Misses != 3 || s.Entries != 3 {
		t.Errorf("stats %+v, want 1 hit / 3 misses / 3 entries", s)
	}
}

func TestProgramCacheEvictsByEntryBound(t *testing.T) {
	c := newProgramCache(2, -1)
	srcs := []string{"LDI T1, 1\nHALT", "LDI T1, 2\nHALT", "LDI T1, 3\nHALT"}
	for _, s := range srcs {
		if _, err := c.Assemble(s); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction", s)
	}
	// The evicted (coldest) source re-assembles as a miss, not a hit.
	if _, err := c.Assemble(srcs[0]); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 4 {
		t.Fatalf("stats %+v, want the evicted source to miss again", s)
	}
}

func TestProgramCacheEvictsByByteBound(t *testing.T) {
	// Each entry costs len(src)+programFootprint, so two entries
	// overflow this bound and the colder one ages out.
	c := newProgramCache(-1, programFootprint+512)
	if _, err := c.Assemble("LDI T1, 1\nHALT"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assemble("LDI T1, 2\nHALT"); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("stats %+v, want 1 entry / 1 eviction under byte pressure", s)
	}
	if s.Bytes > programFootprint+512 {
		t.Fatalf("bytes %d exceed the bound", s.Bytes)
	}
	// Recency governs which entry survives: the latest source hits.
	if _, err := c.Assemble("LDI T1, 2\nHALT"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("stats %+v, want the surviving entry to hit", s)
	}
}

func TestAnalysisCacheEvictsAndRecomputes(t *testing.T) {
	c := newAnalysisCache(1, -1)
	a1 := c.Analyze(gate.CNTFET32())
	c.Analyze(gate.StratixVEmulation()) // evicts the first
	s := c.Stats()
	if s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("stats %+v, want 1 entry / 1 eviction", s)
	}
	// The evicted analysis recomputes to an equivalent result.
	a2 := c.Analyze(gate.CNTFET32())
	if a1 == a2 {
		t.Fatal("evicted analysis returned the same instance; want a recompute")
	}
	if a1.Gates != a2.Gates || a1.FmaxMHz != a2.FmaxMHz {
		t.Errorf("recomputed analysis diverged: %+v vs %+v", a1, a2)
	}
}

func TestAnalyzeART9MatchesDirect(t *testing.T) {
	tech := gate.CNTFET32()
	cached := AnalyzeART9(tech)
	direct := gate.Analyze(gate.BuildART9(), tech)
	if cached.Gates != direct.Gates || cached.FmaxMHz != direct.FmaxMHz ||
		cached.CriticalPathPs != direct.CriticalPathPs || cached.LeakageW != direct.LeakageW {
		t.Errorf("cached analysis diverges from direct analysis:\n%+v\n%+v", cached, direct)
	}
}

// TestMemoHitsAllocateNothing pins the cost of a hit on both shared
// memos: every suite job assembles through the program memo, and
// bench.ImplFor looks an analysis up once per technology for every row
// it computes.
func TestMemoHitsAllocateNothing(t *testing.T) {
	tech := gate.CNTFET32()
	AnalyzeART9(tech)
	if _, err := AssembleCached(goodSrc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { AssembleCached(goodSrc) }); n != 0 {
		t.Errorf("an AssembleCached hit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { AnalyzeART9(tech) }); n != 0 {
		t.Errorf("an AnalyzeART9 hit allocates %v times, want 0", n)
	}
}
