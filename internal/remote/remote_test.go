package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/remote"
)

// specJob builds a remotable job: the Fn is deliberately nil because a
// remote backend must never execute closures locally.
func specJob(name string) engine.Job {
	return engine.Job{ID: name, Spec: &bench.JobSpec{
		Job: bench.ManifestJob{Name: name, Workload: "bubble"},
	}}
}

func mustClient(t *testing.T, url string, opts ...remote.Option) *remote.Client {
	t.Helper()
	c, err := remote.New(url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "not a url", "ftp://host", "http://"} {
		if _, err := remote.New(bad); err == nil {
			t.Errorf("New(%q) accepted an invalid peer URL", bad)
		}
	}
	c, err := remote.New("http://example.test:9009/")
	if err != nil {
		t.Fatal(err)
	}
	if c.Peer() != "http://example.test:9009" {
		t.Errorf("Peer() = %q, want trailing slash trimmed", c.Peer())
	}
}

// TestPeerDownAtDial points the client at a dead address: every job in
// the batch must resolve with a connection error — after the bounded
// retries — and nothing may hang.
func TestPeerDownAtDial(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	dead := ts.URL
	ts.Close() // the port is now unbound: dials fail fast

	c := mustClient(t, dead, remote.WithRetries(1), remote.WithRetryDelay(time.Millisecond))
	jobs := []engine.Job{specJob("a"), specJob("b")}
	results, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("batch error %v, want per-job errors only", err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("job %s resolved without error against a dead peer", jobs[i].ID)
		}
		if !strings.Contains(r.Err.Error(), "connect") && !errors.Is(r.Err, syscall.ECONNREFUSED) {
			t.Errorf("job %s error %v, want a connection error", jobs[i].ID, r.Err)
		}
	}
	st := c.LocalStats()
	if st.Submitted != 2 || st.Failed != 2 {
		t.Errorf("local stats %+v, want 2 submitted / 2 failed", st)
	}

	// A single-job batch is a one-job stream; its failure must be
	// counted too, keeping the submitted = resolved invariant.
	c2 := mustClient(t, dead, remote.WithRetries(0))
	if results, _ := c2.Run(context.Background(), []engine.Job{specJob("solo")}); results[0].Err == nil {
		t.Fatal("single job resolved without error against a dead peer")
	}
	if st := c2.LocalStats(); st.Submitted != 1 || st.Failed != 1 {
		t.Errorf("single-job local stats %+v, want 1 submitted / 1 failed", st)
	}
}

// flakyTransport fails the first n round trips with a dial error, then
// delegates — the deterministic probe for the bounded-retry behaviour.
type flakyTransport struct {
	remaining atomic.Int32
	attempts  atomic.Int32
	rt        http.RoundTripper
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.attempts.Add(1)
	if f.remaining.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	}
	return f.rt.RoundTrip(req)
}

// TestRetriesConnectErrorsThenSucceeds: two dial failures, then the peer
// answers — within a 2-retry budget the batch must succeed, and the
// transport must have been hit exactly 3 times.
func TestRetriesConnectErrorsThenSucceeds(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(bench.JobReport{Name: "a", OK: true})
	}))
	defer ts.Close()

	ft := &flakyTransport{rt: http.DefaultTransport}
	ft.remaining.Store(2)
	c := mustClient(t, ts.URL,
		remote.WithRetries(2), remote.WithRetryDelay(time.Millisecond),
		remote.WithHTTPClient(&http.Client{Transport: ft}))

	results, err := c.Run(context.Background(), []engine.Job{specJob("a")})
	if err != nil || results[0].Err != nil {
		t.Fatalf("run after flaky dials: %v / %v", err, results[0].Err)
	}
	if got := ft.attempts.Load(); got != 3 {
		t.Errorf("transport saw %d attempts, want 3 (2 failures + success)", got)
	}

	// A budget smaller than the failure count must surface the error.
	ft.remaining.Store(2)
	ft.attempts.Store(0)
	c2 := mustClient(t, ts.URL,
		remote.WithRetries(1), remote.WithRetryDelay(time.Millisecond),
		remote.WithHTTPClient(&http.Client{Transport: ft}))
	results, _ = c2.Run(context.Background(), []engine.Job{specJob("a")})
	if results[0].Err == nil {
		t.Fatal("run succeeded despite exhausted retry budget")
	}
	if got := ft.attempts.Load(); got != 2 {
		t.Errorf("transport saw %d attempts, want 2 (retries bounded)", got)
	}
}

// ndjsonHandler streams the given pre-encoded rows, flushing each, then
// runs the tail hook (die, hang, emit garbage...).
func ndjsonHandler(rows []string, tail func(w http.ResponseWriter, r *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		for _, row := range rows {
			fmt.Fprintln(w, row)
			if fl != nil {
				fl.Flush()
			}
		}
		if tail != nil {
			tail(w, r)
		}
	})
}

func okRow(name string) string {
	raw, _ := json.Marshal(bench.JobReport{Name: name, OK: true, Worker: 3})
	return string(raw)
}

// ackStream answers a stub peer's /v1/suite request the way art9-serve
// answers ?ack=1: it writes the start acknowledgement for jobs and
// returns the writer of the end acknowledgement, to call after the
// result rows. A request for any other path or stream variant fails the
// test — the client dispatches over the acknowledged stream only.
func ackStream(t *testing.T, w http.ResponseWriter, r *http.Request, jobs int) (end func(rows int)) {
	if r.URL.Path != "/v1/suite" || r.URL.Query().Get("ack") != "1" {
		t.Errorf("peer got %s %s, want POST /v1/suite?ack=1", r.Method, r.URL)
	}
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"ack": "start", "jobs": jobs})
	return func(rows int) { enc.Encode(map[string]any{"ack": "end", "rows": rows}) }
}

// TestPeerDiesMidStream: the peer flushes one good row, then drops the
// connection without finishing the body. The received row resolves
// normally; the rest resolve with a stream error.
func TestPeerDiesMidStream(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler([]string{okRow("a")},
		func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	jobs := []engine.Job{specJob("a"), specJob("b"), specJob("c")}
	byID := map[string]engine.Result{}
	for r := range c.Stream(context.Background(), jobs) {
		byID[r.ID] = r
	}
	if len(byID) != 3 {
		t.Fatalf("stream resolved %d jobs, want all 3", len(byID))
	}
	if r := byID["a"]; r.Err != nil || r.Value.(*bench.JobReport).Worker != 3 {
		t.Errorf("job a = %+v, want the flushed row passed through", r)
	}
	for _, id := range []string{"b", "c"} {
		if err := byID[id].Err; err == nil || !strings.Contains(err.Error(), "stream") {
			t.Errorf("job %s error %v, want a stream error", id, err)
		}
	}
	st := c.LocalStats()
	if st.Completed != 1 || st.Failed != 2 {
		t.Errorf("local stats %+v, want 1 completed / 2 failed", st)
	}
}

// TestClientCancelMidStream cancels the caller's context after the
// first row; outstanding jobs must resolve with the context error and
// the stream must close promptly.
func TestClientCancelMidStream(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(ndjsonHandler([]string{okRow("a")},
		func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := mustClient(t, ts.URL)
	jobs := []engine.Job{specJob("a"), specJob("b"), specJob("c")}
	out := c.Stream(ctx, jobs)

	first := <-out
	if first.Err != nil || first.ID != "a" {
		t.Fatalf("first result %+v, want job a ok", first)
	}
	cancel()

	got := 1
	deadline := time.After(10 * time.Second)
	for got < len(jobs) {
		select {
		case r, ok := <-out:
			if !ok {
				t.Fatalf("stream closed after %d results, want %d", got, len(jobs))
			}
			got++
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("job %s error %v, want context.Canceled", r.ID, r.Err)
			}
		case <-deadline:
			t.Fatalf("stream stalled after %d results — cancellation stranded a job", got)
		}
	}
	if st := c.LocalStats(); st.Canceled != 2 {
		t.Errorf("local stats %+v, want 2 canceled", st)
	}
}

// TestMalformedNDJSONRow: good row, then garbage. The good row resolves;
// everything after the malformed row resolves with an error naming it.
func TestMalformedNDJSONRow(t *testing.T) {
	ts := httptest.NewServer(ndjsonHandler([]string{okRow("a"), `{"name": nonsense`}, nil))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	jobs := []engine.Job{specJob("a"), specJob("b"), specJob("c")}
	byID := map[string]engine.Result{}
	for r := range c.Stream(context.Background(), jobs) {
		byID[r.ID] = r
	}
	if r := byID["a"]; r.Err != nil {
		t.Errorf("job a: %v, want the good row honoured", r.Err)
	}
	for _, id := range []string{"b", "c"} {
		if err := byID[id].Err; err == nil || !strings.Contains(err.Error(), "malformed NDJSON") {
			t.Errorf("job %s error %v, want the malformed row named", id, err)
		}
	}
}

// TestStatusMapping: the peer's typed statuses unwrap to the engine's
// typed errors, so a caller can errors.Is across the network boundary.
func TestStatusMapping(t *testing.T) {
	tests := []struct {
		status int
		body   string
		want   error
	}{
		{http.StatusServiceUnavailable, `{"error":"engine: closed"}`, engine.ErrClosed},
		{http.StatusGatewayTimeout, `{"error":"engine: job timeout"}`, engine.ErrTimeout},
	}
	for _, tt := range tests {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tt.status)
			fmt.Fprint(w, tt.body)
		}))
		c := mustClient(t, ts.URL)
		results, _ := c.Run(context.Background(), []engine.Job{specJob("a")})
		if !errors.Is(results[0].Err, tt.want) {
			t.Errorf("status %d: error %v, want errors.Is %v", tt.status, results[0].Err, tt.want)
		}
		ts.Close()
	}
}

// TestNotRemotableJob: a job without a spec fails fast without touching
// the network; remotable jobs in the same batch still run.
func TestNotRemotableJob(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		json.NewEncoder(w).Encode(bench.JobReport{Name: "good", OK: true})
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	jobs := []engine.Job{
		{ID: "closure-only", Fn: func(context.Context) (any, error) { return 1, nil }},
		specJob("good"),
	}
	results, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, remote.ErrNotRemotable) {
		t.Errorf("closure job error %v, want ErrNotRemotable", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("remotable job failed: %v", results[1].Err)
	}
	if hits.Load() != 1 {
		t.Errorf("peer saw %d requests, want 1 (one stream for the one valid job)", hits.Load())
	}
}

// TestClosedClientRejects: after Close, batches resolve with ErrClosed
// without contacting the peer.
func TestClosedClientRejects(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) }))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	c.Close()
	results, _ := c.Run(context.Background(), []engine.Job{specJob("a")})
	if !errors.Is(results[0].Err, engine.ErrClosed) {
		t.Errorf("post-Close error %v, want engine.ErrClosed", results[0].Err)
	}
	if hits.Load() != 0 {
		t.Errorf("peer contacted %d times after Close", hits.Load())
	}
	if st := c.LocalStats(); st.Rejected != 1 {
		t.Errorf("local stats %+v, want 1 rejected", st)
	}
}

// TestDuplicateNamesDistinctSpecs: two jobs sharing a name but carrying
// different work must each get their own result, index-aligned, even
// when the peer completes them out of submission order — the wire-name
// deduplication property.
func TestDuplicateNamesDistinctSpecs(t *testing.T) {
	// The fake peer answers every manifest job with a checksum equal to
	// its source length, emitting rows in reverse order.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m bench.Manifest
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			t.Errorf("peer: bad manifest: %v", err)
		}
		end := ackStream(t, w, r, len(m.Jobs))
		fl, _ := w.(http.Flusher)
		for i := len(m.Jobs) - 1; i >= 0; i-- {
			json.NewEncoder(w).Encode(bench.JobReport{
				Name: m.Jobs[i].Name, OK: true,
				Metrics: &bench.MetricsReport{Checksum: len(m.Jobs[i].Source)},
			})
			if fl != nil {
				fl.Flush()
			}
		}
		end(len(m.Jobs))
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	jobs := []engine.Job{
		{ID: "x", Spec: &bench.JobSpec{Job: bench.ManifestJob{Name: "x", Source: "short"}}},
		{ID: "x", Spec: &bench.JobSpec{Job: bench.ManifestJob{Name: "x", Source: "much-longer-source"}}},
	}
	results, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantLen := range []int{len("short"), len("much-longer-source")} {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
		jr := results[i].Value.(*bench.JobReport)
		if jr.Metrics.Checksum != wantLen {
			t.Errorf("result %d carries checksum %d, want %d (cross-assigned row)", i, jr.Metrics.Checksum, wantLen)
		}
		if jr.Name != "x" {
			t.Errorf("result %d name %q, want the wire suffix undone", i, jr.Name)
		}
	}
}

// TestJobTimeoutShipped: an engine-level per-job Timeout reaches the
// peer as the manifest entry's timeout_ms, for a one-job batch and a
// multi-job one alike.
func TestJobTimeoutShipped(t *testing.T) {
	var timeouts []int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m bench.Manifest
		json.NewDecoder(r.Body).Decode(&m)
		end := ackStream(t, w, r, len(m.Jobs))
		for _, mj := range m.Jobs {
			timeouts = append(timeouts, mj.TimeoutMS)
			json.NewEncoder(w).Encode(bench.JobReport{Name: mj.Name, OK: true})
		}
		end(len(m.Jobs))
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	one := specJob("a")
	one.Timeout = 1500 * time.Millisecond
	if results, _ := c.Run(context.Background(), []engine.Job{one}); results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	two := specJob("b")
	two.Timeout = 250 * time.Millisecond
	three := specJob("c")
	if results, _ := c.Run(context.Background(), []engine.Job{two, three}); results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("multi-job batch: %v / %v", results[0].Err, results[1].Err)
	}
	want := []int64{1500, 250, 0}
	for i, w := range want {
		if i >= len(timeouts) || timeouts[i] != w {
			t.Fatalf("shipped timeouts %v, want %v", timeouts, want)
		}
	}
}

// TestHeterogeneousTechnologyGroups: jobs whose specs request different
// technology lists must go out as separate suite requests, each with
// exactly its own list — never a union.
func TestHeterogeneousTechnologyGroups(t *testing.T) {
	var mu sync.Mutex
	techsByJob := map[string][]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m bench.Manifest
		json.NewDecoder(r.Body).Decode(&m)
		mu.Lock()
		for _, mj := range m.Jobs {
			techsByJob[mj.Name] = m.Technologies
		}
		mu.Unlock()
		end := ackStream(t, w, r, len(m.Jobs))
		for _, mj := range m.Jobs {
			json.NewEncoder(w).Encode(bench.JobReport{Name: mj.Name, OK: true})
		}
		end(len(m.Jobs))
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	jobs := []engine.Job{
		{ID: "a", Spec: &bench.JobSpec{Job: bench.ManifestJob{Name: "a", Workload: "bubble"}, Technologies: []string{"cntfet32"}}},
		{ID: "b", Spec: &bench.JobSpec{Job: bench.ManifestJob{Name: "b", Workload: "gemm"}, Technologies: []string{"stratixv"}}},
		{ID: "c", Spec: &bench.JobSpec{Job: bench.ManifestJob{Name: "c", Workload: "sobel"}, Technologies: []string{"cntfet32"}}},
	}
	results, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", jobs[i].ID, r.Err)
		}
	}
	want := map[string][]string{
		"a": {"cntfet32"}, "b": {"stratixv"}, "c": {"cntfet32"},
	}
	for name, techs := range want {
		got := techsByJob[name]
		if len(got) != 1 || got[0] != techs[0] {
			t.Errorf("job %s evaluated against %v, want exactly %v", name, got, techs)
		}
	}
}

// TestLargeBatchesAreChunked: a batch bigger than the serve layer's
// per-request job cap must go out as multiple suite requests, each
// within the cap, and still resolve every job exactly once.
func TestLargeBatchesAreChunked(t *testing.T) {
	const n = 2500 // needs ceil(2500/1024) = 3 requests
	var requests atomic.Int32
	var maxPerRequest atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		var m bench.Manifest
		json.NewDecoder(r.Body).Decode(&m)
		if l := int32(len(m.Jobs)); l > maxPerRequest.Load() {
			maxPerRequest.Store(l)
		}
		end := ackStream(t, w, r, len(m.Jobs))
		for _, mj := range m.Jobs {
			json.NewEncoder(w).Encode(bench.JobReport{Name: mj.Name, OK: true})
		}
		end(len(m.Jobs))
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	jobs := make([]engine.Job, n)
	for i := range jobs {
		name := fmt.Sprintf("j%d", i)
		jobs[i] = engine.Job{ID: name, Spec: &bench.JobSpec{
			Job: bench.ManifestJob{Name: name, Workload: "bubble"},
		}}
	}
	results, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.ID != jobs[i].ID {
			t.Fatalf("result %d is %s, want %s", i, r.ID, jobs[i].ID)
		}
	}
	if got := requests.Load(); got != 3 {
		t.Errorf("batch went out as %d requests, want 3", got)
	}
	if got := maxPerRequest.Load(); got > 1024 {
		t.Errorf("a request carried %d jobs, exceeding the peer's 1024 cap", got)
	}
	if st := c.LocalStats(); st.Completed != n {
		t.Errorf("local stats %+v, want %d completed", st, n)
	}
}

// TestTypedErrorsSurviveSuiteRows: rows rendered by the serve layer
// from typed failures carry error_kind, and the client maps them back —
// errors.Is works on a row's error exactly as on a failed request.
func TestTypedErrorsSurviveSuiteRows(t *testing.T) {
	rows := map[string]bench.JobReport{
		"t": bench.JobReportOf(engine.Result{ID: "t",
			Err: fmt.Errorf("wrapped: %w", engine.ErrTimeout)}, nil),
		"c": bench.JobReportOf(engine.Result{ID: "c",
			Err: fmt.Errorf("wrapped: %w", engine.ErrClosed)}, nil),
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m bench.Manifest
		json.NewDecoder(r.Body).Decode(&m)
		end := ackStream(t, w, r, len(m.Jobs))
		for _, mj := range m.Jobs {
			json.NewEncoder(w).Encode(rows[mj.Name])
		}
		end(len(m.Jobs))
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	results, err := c.Run(context.Background(), []engine.Job{specJob("t"), specJob("c")})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, engine.ErrTimeout) {
		t.Errorf("timeout row error %v, want errors.Is ErrTimeout", results[0].Err)
	}
	if !errors.Is(results[1].Err, engine.ErrClosed) {
		t.Errorf("closed row error %v, want errors.Is ErrClosed", results[1].Err)
	}
}

// TestRunReportForUsesLocalCounters: a per-run report over a backend
// with a remote shard must count only this process's submissions, not
// the peer's lifetime totals.
func TestRunReportForUsesLocalCounters(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/stats":
			// A long-lived peer that has served many other clients.
			json.NewEncoder(w).Encode(map[string]any{
				"engine": bench.EngineReport{Workers: 16, Submitted: 99999, Completed: 99999},
			})
		default:
			var m bench.Manifest
			json.NewDecoder(r.Body).Decode(&m)
			end := ackStream(t, w, r, len(m.Jobs))
			for _, mj := range m.Jobs {
				json.NewEncoder(w).Encode(bench.JobReport{Name: mj.Name, OK: true})
			}
			end(len(m.Jobs))
		}
	}))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	set := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		engine.New(engine.Options{Workers: 1}), c)
	defer set.Close()
	jobs := []engine.Job{
		{ID: "local", Fn: func(context.Context) (any, error) { return 1, nil },
			Spec: &bench.JobSpec{Job: bench.ManifestJob{Name: "local", Workload: "bubble"}}},
		specJob("remote"),
	}
	if _, err := set.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	rep := bench.RunReportFor(set)
	if rep.Submitted != 2 || rep.Completed != 2 {
		t.Errorf("run report %+v, want exactly this run's 2 jobs (not peer lifetime totals)", rep)
	}
	if rep.Shards != 2 || rep.Workers != 1 {
		t.Errorf("run report %+v, want 2 shards and the 1 local worker", rep)
	}
	// The fleet view still scrapes: the front-wide Stats include the
	// peer's lifetime counters.
	if st := set.Stats(); st.Submitted < 99999 {
		t.Errorf("scraped set stats %+v, want the peer's lifetime counters included", st)
	}
}

// TestStatsScrape: Stats() prefers the peer's /v1/stats; a dead peer
// falls back to the client-side counters.
func TestStatsScrape(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"engine": bench.EngineReport{Workers: 7, Submitted: 41, Completed: 40, Streams: 5},
		})
	}))
	c := mustClient(t, ts.URL)
	st := c.Stats()
	if st.Workers != 7 || st.Submitted != 41 || st.Completed != 40 || st.Streams != 5 {
		t.Errorf("scraped stats %+v, want the peer's counters", st)
	}

	ts.Close()
	c2 := mustClient(t, ts.URL, remote.WithStatsTimeout(200*time.Millisecond))
	if st := c2.Stats(); st.Workers != 0 || st.Submitted != 0 {
		t.Errorf("fallback stats %+v, want zeroed local counters", st)
	}
}

// TestStatsScrapeFailureIsTyped pins the fixed latent bug: a failed
// /v1/stats scrape must not vanish behind the local-counter fallback —
// PeerStats wraps it in ErrStatsUnavailable and Stats records it for
// StatsErr, clearing it again after a clean scrape.
func TestStatsScrapeFailureIsTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			fmt.Fprint(w, `{"engine":{"workers":7,"submitted":3}}`)
		}
	}))
	c := mustClient(t, ts.URL, remote.WithRetries(0))

	// Healthy scrape: typed error absent.
	if st := c.Stats(); st.Workers != 7 {
		t.Fatalf("scraped stats %+v, want workers 7", st)
	}
	if err := c.StatsErr(); err != nil {
		t.Fatalf("StatsErr after clean scrape = %v, want nil", err)
	}

	// Dead peer: fallback to local counters plus a typed, visible error.
	ts.Close()
	if _, err := c.PeerStats(context.Background()); !errors.Is(err, remote.ErrStatsUnavailable) {
		t.Errorf("PeerStats error %v, want ErrStatsUnavailable", err)
	}
	if st := c.Stats(); st.Workers != 0 {
		t.Errorf("fallback stats %+v, want local view (workers 0)", st)
	}
	if err := c.StatsErr(); !errors.Is(err, remote.ErrStatsUnavailable) {
		t.Errorf("StatsErr after failed scrape = %v, want ErrStatsUnavailable", err)
	}
}

// TestStatsScrapeBadBodyIsTyped covers the non-transport failure modes:
// a non-200 status and a malformed body are ErrStatsUnavailable too.
func TestStatsScrapeBadBodyIsTyped(t *testing.T) {
	status := atomic.Int32{}
	status.Store(http.StatusInternalServerError)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		code := int(status.Load())
		w.WriteHeader(code)
		if code == http.StatusOK {
			fmt.Fprint(w, `{"engine": nonsense`)
		}
	}))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	if _, err := c.PeerStats(context.Background()); !errors.Is(err, remote.ErrStatsUnavailable) {
		t.Errorf("non-200 scrape error %v, want ErrStatsUnavailable", err)
	}
	status.Store(http.StatusOK)
	if _, err := c.PeerStats(context.Background()); !errors.Is(err, remote.ErrStatsUnavailable) {
		t.Errorf("malformed-body scrape error %v, want ErrStatsUnavailable", err)
	}
}

// TestProbe pins the Prober surface: 200 healthz is healthy, a dead
// peer is ErrUnavailable, a closed client is ErrClosed without network.
func TestProbe(t *testing.T) {
	var path atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path.Store(r.URL.Path)
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	c := mustClient(t, ts.URL)
	if err := c.Probe(context.Background()); err != nil {
		t.Fatalf("probe against live peer: %v", err)
	}
	if p, _ := path.Load().(string); p != "/v1/healthz" {
		t.Errorf("probe hit %q, want /v1/healthz", p)
	}

	ts.Close()
	if err := c.Probe(context.Background()); !errors.Is(err, engine.ErrUnavailable) {
		t.Errorf("probe against dead peer = %v, want ErrUnavailable", err)
	}

	c.Close()
	if err := c.Probe(context.Background()); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("probe on closed client = %v, want ErrClosed", err)
	}
}

// TestTransportFailuresAreUnavailable pins the failover contract: every
// transport-class failure — dead peer at dial, severed mid-stream —
// wraps engine.ErrUnavailable so a Balancer re-runs the job, while a
// caller's cancellation does not.
func TestTransportFailuresAreUnavailable(t *testing.T) {
	t.Run("dial", func(t *testing.T) {
		ts := httptest.NewServer(nil)
		url := ts.URL
		ts.Close()
		c := mustClient(t, url, remote.WithRetries(0))
		rs, _ := c.Run(context.Background(), []engine.Job{specJob("a")})
		if !errors.Is(rs[0].Err, engine.ErrUnavailable) {
			t.Errorf("dial failure %v, want ErrUnavailable", rs[0].Err)
		}
	})

	t.Run("mid-stream", func(t *testing.T) {
		ts := httptest.NewServer(ndjsonHandler([]string{okRow("a")},
			func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }))
		defer ts.Close()
		c := mustClient(t, ts.URL)
		byID := map[string]engine.Result{}
		for r := range c.Stream(context.Background(), []engine.Job{specJob("a"), specJob("b")}) {
			byID[r.ID] = r
		}
		if byID["a"].Err != nil {
			t.Errorf("flushed row a failed: %v", byID["a"].Err)
		}
		if !errors.Is(byID["b"].Err, engine.ErrUnavailable) {
			t.Errorf("severed-stream failure %v, want ErrUnavailable", byID["b"].Err)
		}
	})

	t.Run("cancel-is-not-unavailable", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		ts := httptest.NewServer(ndjsonHandler(nil,
			func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-r.Context().Done():
				case <-release:
				}
			}))
		defer ts.Close()
		c := mustClient(t, ts.URL)
		ctx, cancel := context.WithCancel(context.Background())
		out := c.Stream(ctx, []engine.Job{specJob("a"), specJob("b")})
		cancel()
		for r := range out {
			if engine.Retryable(r.Err) {
				t.Errorf("cancelled job %s classified retryable (%v) — a balancer would re-run it", r.ID, r.Err)
			}
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("cancelled job %s error %v, want context.Canceled", r.ID, r.Err)
			}
		}
	})
}

// TestUnavailableKindSurvivesSuiteRows pins the tier-composition wire
// contract: a peer row classified "unavailable" re-types to
// engine.ErrUnavailable on this side, so an upper balancer treats the
// failure as retryable and re-runs the job on another front.
func TestUnavailableKindSurvivesSuiteRows(t *testing.T) {
	row := `{"name":"a","ok":false,"error":"leaf died","error_kind":"unavailable","worker":-1}`
	ts := httptest.NewServer(ndjsonHandler([]string{row}, nil))
	defer ts.Close()

	c := mustClient(t, ts.URL)
	rs, _ := c.Run(context.Background(), []engine.Job{specJob("a"), specJob("b")})
	if !errors.Is(rs[0].Err, engine.ErrUnavailable) {
		t.Errorf("unavailable row error %v, want engine.ErrUnavailable", rs[0].Err)
	}
	if !engine.Retryable(rs[0].Err) {
		t.Error("unavailable row not classified retryable — tiered failover would drop the job")
	}
}

// TestUnavailableKindSurvives503 pins the typed-error round trip of a
// refused request: a 503 whose body carries error_kind "unavailable"
// (a front whose own backends are unreachable) re-types to
// engine.ErrUnavailable, while a bare 503 stays ErrClosed.
func TestUnavailableKindSurvives503(t *testing.T) {
	kind := atomic.Value{}
	kind.Store("unavailable")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		if k, _ := kind.Load().(string); k != "" {
			fmt.Fprintf(w, `{"error":"backends down","error_kind":%q}`, k)
			return
		}
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()
	c := mustClient(t, ts.URL)

	rs, _ := c.Run(context.Background(), []engine.Job{specJob("a")})
	if !errors.Is(rs[0].Err, engine.ErrUnavailable) {
		t.Errorf("503+unavailable error %v, want engine.ErrUnavailable", rs[0].Err)
	}
	kind.Store("")
	rs, _ = c.Run(context.Background(), []engine.Job{specJob("b")})
	if !errors.Is(rs[0].Err, engine.ErrClosed) || errors.Is(rs[0].Err, engine.ErrUnavailable) {
		t.Errorf("bare 503 error %v, want engine.ErrClosed only", rs[0].Err)
	}
}
