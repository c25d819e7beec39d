package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesRegistry keeps the repository's BENCHMARK.json
// and this command's metric and workload tables identical.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !slices.Equal(doc.Paths, []string{"cmd/art9-perf"}) || !slices.Equal(doc.Command, []string{"bash", "cmd/art9-perf/run.sh"}) {
		t.Errorf("command %q, paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the command measures %d s by default", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !slices.Equal(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncommand        %+v", doc.EndToEnd, endToEnd)
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncommand        %+v", doc.PerLayer, perLayer)
	}

	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" })
	if i < 0 || endToEnd[i].Unit != "s" || endToEnd[i].Better != "lower" {
		t.Fatal("setup_s must be declared, in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[i].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v; set-up must carry the largest", d.Name, d.Bound, endToEnd[i].Bound)
		}
	}
}

// TestWindows checks how a phase is cut into windows: jobs are shared
// between the windows their request overlapped, latencies go to the
// window their request completed in, and requests completing after the
// measured time count only for the part they spent inside it.
func TestWindows(t *testing.T) {
	ms := time.Millisecond
	p := phase{reqs: []sample{
		{start: 0, end: 8 * ms, ok: 1},         // window 0
		{start: 5 * ms, end: 15 * ms, ok: 2},   // half in each window
		{start: 12 * ms, end: 14 * ms, ok: 0},  // failed: a latency, no jobs
		{start: 18 * ms, end: 28 * ms, ok: 1},  // completes past the measured time
		{start: 30 * ms, end: 31 * ms, ok: 1}}, // outside it
	}
	jps, p50, p95 := p.windows(20*ms, 2, nil)
	if want := []float64{(1 + 1) / 0.01, (1 + 0.2) / 0.01}; !approx(jps, want) {
		t.Errorf("jobs/s per window = %v, want %v", jps, want)
	}
	if want := []float64{8, (10 + 2) / 2.0}; !approx(p50, want) {
		t.Errorf("p50 per window = %v, want %v", p50, want)
	}
	if want := []float64{8, 2 + 0.95*8}; !approx(p95, want) {
		t.Errorf("p95 per window = %v, want %v", p95, want)
	}

	// A host running at half speed in the second window: its throughput
	// doubles and its latencies halve in reference-host time.
	jps, p50, _ = p.windows(20*ms, 2, []float64{1, 0.5})
	if want := []float64{(1 + 1) / 0.01, (1 + 0.2) / 0.01 / 0.5}; !approx(jps, want) {
		t.Errorf("rescaled jobs/s per window = %v, want %v", jps, want)
	}
	if want := []float64{8, (10 + 2) / 2.0 * 0.5}; !approx(p50, want) {
		t.Errorf("rescaled p50 per window = %v, want %v", p50, want)
	}
}

// TestHostFactors checks how host samples become window factors: speeds
// are averaged per window, stolen CPU time is taken out, and a window
// without samples takes the mean of all of them.
func TestHostFactors(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Unix(1000, 0)
	cpus := float64(runtime.NumCPU())
	ss := []hostSample{
		{at: t0.Add(1 * ms), speed: 1},
		{at: t0.Add(5 * ms), speed: 0.8},
		// Half the machine's CPU time stolen over the 10 ms before.
		{at: t0.Add(15 * ms), speed: 0.8, steal: 0.5 * cpus * 0.010},
		{at: t0.Add(45 * ms), speed: 1, steal: 0.5 * cpus * 0.010}, // past the windows
	}
	f := hostFactors(ss, t0, 30*ms, 3)
	all := (1 + 0.8 + 0.4 + 1) / 4
	if want := []float64{0.9, 0.4, all}; !approx(f, want) {
		t.Errorf("factors = %v, want %v", f, want)
	}
	if got := hostFactor(nil); got != 1 {
		t.Errorf("hostFactor(nil) = %v, want 1", got)
	}
}

func approx(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload briefly, untraced and then traced: each
// must report exactly its registry's metrics, all finite, with no failed
// job, and the untraced runs must record no spans at all.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	before := spansRecorded.Load()
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, w := range workloads {
			cfg := config{seed: 1, workload: w.name, seconds: 0.2, trace: traced}
			res, err := runWorkload(context.Background(), w, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !traced && spansRecorded.Load() != before {
				t.Errorf("%s: the untraced run recorded %d spans", w.name, spansRecorded.Load()-before)
			}
			line := res.line()
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			var got, names []string
			for n, m := range line.Metrics {
				got = append(got, n)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, n, m.Value)
				}
			}
			for _, d := range want {
				names = append(names, d.Name)
			}
			sort.Strings(got)
			sort.Strings(names)
			if !slices.Equal(got, names) {
				t.Errorf("%s traced=%v reports %v, want %v", w.name, traced, got, names)
			}
		}
	}
	if spansRecorded.Load() == before {
		t.Error("the traced runs recorded no spans")
	}
}
