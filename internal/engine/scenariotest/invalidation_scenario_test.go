package scenariotest_test

// The cache-invalidation scenario: the result cache keys on technology
// content, so editing a technology table between runs must turn every
// affected entry into a standing miss — the edited run recomputes and
// renders byte-identical to a fresh uncached run under the edited
// table, never replaying a row priced under the old numbers.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/remote"
	"repro/internal/xlate"
)

// techManifest builds n bubble jobs evaluated against cntfet32 — unlike
// scenariotest.BenchJobs, these specs carry a technology list, so their
// cache keys cover the table content under edit. Distinct iteration
// counts keep the keys distinct (the name alone never participates), so
// the hit counters below track jobs one to one.
func techManifest(t *testing.T, n int) (*bench.Manifest, []engine.Job) {
	t.Helper()
	m := &bench.Manifest{Technologies: []string{"cntfet32"}}
	for i := 0; i < n; i++ {
		m.Jobs = append(m.Jobs, bench.ManifestJob{
			Name: fmt.Sprintf("bubble-%02d", i), Workload: "bubble",
			Iterations: i + 1})
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, jobs
}

// renderImplRows canonicalizes a result set including the per-technology
// implementation rows — scenariotest.RenderRows covers metrics only,
// and a technology edit is invisible there: the cycle counts don't move,
// only the timing/energy/area numbers priced from the table do.
func renderImplRows(t *testing.T, rs []engine.Result, techs []*gate.Technology) string {
	t.Helper()
	lines := make([]string, len(rs))
	for i, r := range rs {
		jr := bench.JobReportOf(r, techs)
		if !jr.OK {
			t.Fatalf("job %s failed: %s", jr.Name, jr.Error)
		}
		row, err := json.Marshal(struct {
			Metrics         *bench.MetricsReport `json:"metrics"`
			Implementations []bench.ImplReport   `json:"implementations"`
		}{jr.Metrics, jr.Implementations})
		if err != nil {
			t.Fatalf("marshalling row of %s: %v", jr.Name, err)
		}
		lines[i] = fmt.Sprintf("%s=%s", jr.Name, row)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// uncachedRows runs jobs on a fresh cache-less engine and renders them
// with implementations — the oracle for both halves of the scenario.
func uncachedRows(t *testing.T, jobs []engine.Job, techs []*gate.Technology) string {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	rs, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return renderImplRows(t, rs, techs)
}

// TestScenarioTechnologyEditedBetweenRuns pins the tentpole end to end:
// warm a cached evaluator, edit the technology table it evaluates
// against, and re-run the same jobs on the same evaluator. The edited
// run must score zero cache hits — the fingerprint moved, so every old
// entry is unreachable — and its rows must be byte-identical to a fresh
// uncached run under the edited table (and therefore differ from the
// pre-edit rows wherever the edit is visible).
func TestScenarioTechnologyEditedBetweenRuns(t *testing.T) {
	m, jobs := techManifest(t, 4)
	techs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}

	ev := mustBackend(t, remote.BackendConfig{
		Cache: true, Engine: engine.Options{Workers: 2}})
	defer ev.Close()
	adapter, ok := engine.ResultCacheOf(ev).(*bench.ResultCache)
	if !ok {
		t.Fatal("no result cache reachable from the topology")
	}

	// Cold and warm runs under the shipped table: the second run replays.
	cold, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	before := renderImplRows(t, cold, techs)
	if want := uncachedRows(t, jobs, techs); before != want {
		t.Fatalf("cold cached rows diverged from the uncached oracle:\ngot:\n%s\nwant:\n%s", before, want)
	}
	warm, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderImplRows(t, warm, techs); got != before {
		t.Fatalf("warm rows diverged from cold:\ngot:\n%s\nwant:\n%s", got, before)
	}
	warmed := adapter.Stats()
	if warmed.Hits != uint64(len(jobs)) {
		t.Fatalf("warm stats %+v, want %d hits", warmed, len(jobs))
	}

	// Edit the table out from under the warmed cache: one DelayPs on one
	// cell kind, the smallest edit that reprices the implementation rows.
	t.Cleanup(bench.RegisterTechnology("cntfet32", func() *gate.Technology {
		tech := gate.CNTFET32()
		props := make(map[gate.CellKind]gate.CellProps, len(tech.Props))
		for k, v := range tech.Props {
			props[k] = v
		}
		p := props[gate.TFA]
		p.DelayPs *= 2
		props[gate.TFA] = p
		tech.Props = props
		return tech
	}))
	editedTechs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}
	want := uncachedRows(t, jobs, editedTechs)
	if want == before {
		t.Fatal("the table edit is invisible in the rendered rows; the scenario proves nothing")
	}

	// Same evaluator, same jobs, edited table: zero new hits, and the
	// rows match the edited-table oracle byte for byte — the stale rows
	// priced under the old numbers never replay.
	edited, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderImplRows(t, edited, editedTechs); got != want {
		t.Fatalf("post-edit rows diverged from the edited-table oracle:\ngot:\n%s\nwant:\n%s", got, want)
	}
	after := adapter.Stats()
	if after.Hits != warmed.Hits {
		t.Fatalf("post-edit run replayed from cache: %d hits -> %d", warmed.Hits, after.Hits)
	}
	if after.Puts <= warmed.Puts {
		t.Fatalf("post-edit run never stored under the new keys: %+v", after)
	}
}
