package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/rescache"
	"repro/internal/xlate"
)

// replayedLine is the decode-and-encode replay of a stored row, written
// out independently of the byte path: the row decoded, named when it
// has no name, and written by json.Encoder. kept is false when the row
// does not decode to a successful report, which Lookup must evict.
func replayedLine(t testing.TB, raw []byte, name string) (line []byte, jr JobReport, kept bool) {
	t.Helper()
	if err := json.Unmarshal(raw, &jr); err != nil || !jr.OK {
		return nil, JobReport{}, false
	}
	if jr.Name == "" {
		jr.Name = name
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jr); err != nil {
		t.Fatalf("encoding the decoded row: %v", err)
	}
	return buf.Bytes(), jr, true
}

// rowNames covers every escape class encoding/json applies to a name:
// quotes, backslashes, HTML-escaped bytes, control bytes, non-ASCII,
// the JavaScript line separators and invalid UTF-8.
var rowNames = []string{
	"", "bubble", `say "hi"`, `C:\jobs\one`, "<b>&amp;</b>",
	"tab\there\nnewline", "naïve ☃ 名前", "sep\u2028\u2029", "bad\xffutf8",
}

// TestCachedRowLineMatchesEncoder pins the byte path to the bytes the
// decode-and-encode path writes, for every suite workload's row under
// each technology list and every class of job name.
func TestCachedRowLineMatchesEncoder(t *testing.T) {
	ctx := context.Background()
	ws := append(append([]Workload(nil), Workloads...), ExtendedWorkloads...)
	for _, w := range ws {
		o, err := Run(w, xlate.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, names := range [][]string{{"cntfet32"}, {"stratixv"}, {"cntfet32", "stratixv"}} {
			techs, err := Technologies(names)
			if err != nil {
				t.Fatal(err)
			}
			store := rescache.NewLRU(0, 0)
			cache := NewResultCache(localTier(store))
			spec := &JobSpec{
				Job:          ManifestJob{Source: w.Source, Iterations: w.Iterations},
				Technologies: names,
			}
			cache.Store(ctx, spec, o)
			v, ok := cache.Lookup(ctx, spec)
			if _, isRow := v.(*CachedRow); !ok || !isRow {
				t.Fatalf("%s %v: stored row looked up as %T, %v; want a *CachedRow", w.Name, names, v, ok)
			}
			key, _ := resultKey(spec)
			raw, _ := store.Get(ctx, key)
			for _, name := range rowNames {
				r := engine.Result{ID: name, Value: v, Worker: -1}
				want, wantJR, _ := replayedLine(t, raw, name)
				got, err := AppendReportLine(nil, r, techs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v name %q:\nserved  %s\nencoder %s", w.Name, names, name, got, want)
				}
				if jr := JobReportOf(r, techs); !reflect.DeepEqual(jr, wantJR) {
					t.Fatalf("%s %v name %q: JobReportOf %+v, decoded row %+v", w.Name, names, name, jr, wantJR)
				}
			}
		}
	}
}

// FuzzResultCacheReplay stores arbitrary bytes as a cached row and
// looks them up. A row the decode-and-encode path would evict must be
// evicted and counted corrupt; any other row must be served as one line
// that decodes to the report that path serves, byte for byte whenever
// the stored row is the canonical encoding of what it decodes to.
func FuzzResultCacheReplay(f *testing.F) {
	f.Add([]byte(`{"name":"","ok":true,"elapsed_ms":0,"worker":-1,"metrics":{"checksum":7,"rv_insts":1,"rv_bits":32,"art_insts":1,"art_trits":9,"art9_cycles":5,"vex_cycles":6,"pico_cycles":7,"redundancy_removed":0}}`), "job")
	f.Fuzz(func(t *testing.T, raw []byte, name string) {
		ctx := context.Background()
		store := rescache.NewLRU(0, 0)
		cache := NewResultCache(localTier(store))
		spec := &JobSpec{Job: ManifestJob{Source: "LDI T1, 1\nHALT", Iterations: 1}}
		key, _ := resultKey(spec)
		store.Put(ctx, key, raw)

		want, wantJR, kept := replayedLine(t, raw, name)
		v, hit := cache.Lookup(ctx, spec)
		_, stored := store.Get(ctx, key)
		corrupt := cache.Stats().Corrupt
		if !kept {
			if hit || stored || corrupt != 1 {
				t.Fatalf("row %q: hit %v, still stored %v, corrupt %d; want an eviction counted once", raw, hit, stored, corrupt)
			}
			return
		}
		if !hit || !stored || corrupt != 0 {
			t.Fatalf("row %q: hit %v, still stored %v, corrupt %d; want a hit", raw, hit, stored, corrupt)
		}
		r := engine.Result{ID: name, Value: v, Worker: -1}
		got, err := AppendReportLine(nil, r, nil)
		if err != nil {
			t.Fatalf("row %q: %v", raw, err)
		}
		if i := bytes.IndexByte(got, '\n'); i != len(got)-1 {
			t.Fatalf("row %q served with a raw newline inside: %q", raw, got)
		}
		var gotJR JobReport
		if err := json.Unmarshal(got, &gotJR); err != nil {
			t.Fatalf("row %q served as %q, which does not decode: %v", raw, got, err)
		}
		var wantDecoded JobReport
		if err := json.Unmarshal(want, &wantDecoded); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotJR, wantDecoded) {
			t.Fatalf("row %q served as %q, want %q", raw, got, want)
		}
		if jr := JobReportOf(r, nil); !reflect.DeepEqual(jr, wantJR) {
			t.Fatalf("row %q: JobReportOf %+v, want %+v", raw, jr, wantJR)
		}
		var decoded JobReport
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		if canon, _ := json.Marshal(&decoded); bytes.Equal(raw, canon) && !bytes.Equal(got, want) {
			t.Fatalf("canonical row %q served as %q, want %q", raw, got, want)
		}
	})
}

// BenchmarkResultCacheHit times the warm path of a serve-replay job:
// the result key alone, and a hit — Lookup of a warm LRU entry plus the
// line /v1/suite writes for it.
func BenchmarkResultCacheHit(b *testing.B) {
	ctx := context.Background()
	cache := NewResultCache(localTier(rescache.NewLRU(0, 0)))
	spec := &JobSpec{
		Job:          ManifestJob{Name: "bubble", Source: BubbleSort.Source, Iterations: 1},
		Technologies: []string{"cntfet32", "stratixv"},
	}
	o, err := Run(BubbleSort, xlate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cache.Store(ctx, spec, o)
	techs, err := Technologies(spec.Technologies)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := resultKey(spec); !ok {
				b.Fatal("spec did not key")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		var line []byte
		for i := 0; i < b.N; i++ {
			v, ok := cache.Lookup(ctx, spec)
			if !ok {
				b.Fatal("warm entry missed")
			}
			if line, err = AppendReportLine(line[:0], engine.Result{ID: "bubble", Value: v, Worker: -1}, techs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
