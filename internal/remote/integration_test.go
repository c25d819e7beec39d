package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/remote"
	"repro/internal/serve"
	"repro/internal/xlate"
)

// suiteRows runs the full example-manifest suite on ev and renders each
// result as a sorted slice of marshalled report rows with the two
// run-volatile fields (elapsed, worker index) normalised away —
// everything that is a function of the evaluation itself stays.
func suiteRows(t *testing.T, ev engine.Evaluator, m *bench.Manifest, techs []*gate.Technology) []string {
	t.Helper()
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		jr := bench.JobReportOf(r, techs)
		jr.ElapsedMS = 0
		jr.Worker = 0
		raw, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(raw))
	}
	sort.Strings(rows)
	return rows
}

// TestMixedLocalRemoteShardSetMatchesLocal is the acceptance pin of the
// Evaluator redesign: the topology NewBackendWith builds for one local
// shard plus one peer — a Balancer over a local Engine and an
// internal/remote client backed by an in-process httptest art9-serve —
// must yield byte-identical sorted suite results to a purely local run.
func TestMixedLocalRemoteShardSetMatchesLocal(t *testing.T) {
	m := &bench.Manifest{
		Technologies: []string{"cntfet32", "stratixv"},
		Jobs: []bench.ManifestJob{
			{Name: "bubble", Workload: "bubble"},
			{Name: "gemm", Workload: "gemm"},
			{Name: "sobel", Workload: "sobel"},
			{Name: "dhrystone", Workload: "dhrystone"},
			{Name: "strsearch", Workload: "strsearch"},
			{Name: "inline", Source: "li a0, 21\nadd a0, a0, a0\nebreak", Iterations: 2},
		},
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}

	// The peer: a real art9-serve over httptest.
	peerSrv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer func() {
		peerTS.Close()
		peerSrv.Close()
	}()

	mixed, client := mixedBackend(t, peerTS.URL, 2)
	defer mixed.Close()
	local := engine.New(engine.Options{Workers: 2})
	defer local.Close()

	mixedRows := suiteRows(t, mixed, m, techs)
	localRows := suiteRows(t, local, m, techs)

	if len(mixedRows) != len(m.Jobs) {
		t.Fatalf("mixed run yielded %d rows, want %d", len(mixedRows), len(m.Jobs))
	}
	for i := range localRows {
		if !bytes.Equal([]byte(mixedRows[i]), []byte(localRows[i])) {
			t.Errorf("sorted row %d differs:\n mixed: %s\n local: %s", i, mixedRows[i], localRows[i])
		}
	}

	// The remote shard must actually have carried work — the equality
	// above would also hold for a front that quietly ran everything
	// locally.
	if st := client.LocalStats(); st.Completed == 0 {
		t.Errorf("remote client stats %+v, want jobs completed via the peer", st)
	}
}

// mixedBackend builds the one-local-shard-plus-one-peer topology through
// NewBackendWith and returns it with its remote member.
func mixedBackend(t *testing.T, peer string, workers int) (*engine.Balancer, *remote.Client) {
	t.Helper()
	ev, err := remote.NewBackendWith(remote.BackendConfig{
		Shards: 1, Peers: []string{peer}, HealthInterval: -1,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	bal, ok := ev.(*engine.Balancer)
	if !ok {
		ev.Close()
		t.Fatalf("NewBackendWith(1 shard, 1 peer) built %T, want *engine.Balancer", ev)
	}
	client, ok := bal.Backend(1).(*remote.Client)
	if !ok {
		bal.Close()
		t.Fatalf("backend 1 is %T, want the peer's *remote.Client", bal.Backend(1))
	}
	return bal, client
}

// TestMixedShardSetStream checks the streaming path through the same
// mixed topology: every job resolves exactly once, remote rows pass
// through as *bench.JobReport values and local rows as *bench.Outcome,
// one value per job each backend completed.
func TestMixedShardSetStream(t *testing.T) {
	peerSrv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer func() {
		peerTS.Close()
		peerSrv.Close()
	}()
	mixed, client := mixedBackend(t, peerTS.URL, 1)
	defer mixed.Close()

	m := &bench.Manifest{Jobs: []bench.ManifestJob{
		{Name: "bubble", Workload: "bubble"},
		{Name: "gemm", Workload: "gemm"},
		{Name: "sobel", Workload: "sobel"},
		{Name: "strsearch", Workload: "strsearch"},
	}}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var outcomes, reports int
	seen := map[string]bool{}
	for r := range mixed.Stream(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		if seen[r.ID] {
			t.Fatalf("job %s delivered twice", r.ID)
		}
		seen[r.ID] = true
		switch r.Value.(type) {
		case *bench.Outcome:
			outcomes++
		case *bench.JobReport:
			reports++
		default:
			t.Fatalf("job %s: value %T, want *Outcome or *JobReport", r.ID, r.Value)
		}
	}
	local := engine.LocalStats(mixed.Backend(0)).Completed
	remoteDone := client.LocalStats().Completed
	if outcomes+reports != len(jobs) || uint64(outcomes) != local || uint64(reports) != remoteDone {
		t.Errorf("stream saw %d local outcomes and %d remote reports, want %d and %d",
			outcomes, reports, local, remoteDone)
	}
}

// TestBalancerFleetSurvivesDeadPeer is the fleet-level acceptance pin
// of the failover scheduler: a Balancer fronting one live remote peer
// (a real httptest art9-serve), one peer that is already dead, and one
// local engine must complete the whole manifest with sorted rows
// byte-identical to a purely local run — the dead peer's jobs re-run on
// the survivors — and must record the failovers it performed.
func TestBalancerFleetSurvivesDeadPeer(t *testing.T) {
	m := &bench.Manifest{
		Technologies: []string{"cntfet32"},
		Jobs: []bench.ManifestJob{
			{Name: "bubble", Workload: "bubble"},
			{Name: "gemm", Workload: "gemm"},
			{Name: "sobel", Workload: "sobel"},
			{Name: "dhrystone", Workload: "dhrystone"},
			{Name: "strsearch", Workload: "strsearch"},
			{Name: "inline", Source: "li a0, 21\nadd a0, a0, a0\nebreak", Iterations: 2},
		},
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}

	peerSrv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer func() {
		peerTS.Close()
		peerSrv.Close()
	}()
	live, err := remote.New(peerTS.URL)
	if err != nil {
		t.Fatal(err)
	}

	// A peer that died before the batch: grab a URL, then close it.
	deadTS := httptest.NewServer(nil)
	deadURL := deadTS.URL
	deadTS.Close()
	dead, err := remote.New(deadURL, remote.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}

	fleet := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		live, dead, engine.New(engine.Options{Workers: 2}))
	defer fleet.Close()
	local := engine.New(engine.Options{Workers: 2})
	defer local.Close()

	fleetRows := suiteRows(t, fleet, m, techs)
	localRows := suiteRows(t, local, m, techs)

	if len(fleetRows) != len(m.Jobs) {
		t.Fatalf("fleet run yielded %d rows, want %d", len(fleetRows), len(m.Jobs))
	}
	for i := range localRows {
		if !bytes.Equal([]byte(fleetRows[i]), []byte(localRows[i])) {
			t.Errorf("sorted row %d differs:\n fleet: %s\n local: %s", i, fleetRows[i], localRows[i])
		}
	}

	var deadHealth engine.BackendHealth
	for _, h := range fleet.Health() {
		if h.Name == deadURL {
			deadHealth = h
		}
	}
	if deadHealth.Name == "" {
		t.Fatal("dead peer missing from the balancer's health scorecards")
	}
	if deadHealth.Failovers == 0 {
		t.Error("no failovers recorded for the dead peer, though the suite completed")
	}
	if deadHealth.Healthy {
		t.Error("dead peer still marked healthy after failing its jobs")
	}
	if fleet.Retries() == 0 {
		t.Error("balancer recorded no retries")
	}
}
