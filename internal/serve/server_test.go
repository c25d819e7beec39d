package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/engine/faulttest"
	"repro/internal/xlate"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Shards  int    `json:"shards"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Shards != 2 || h.Workers != 2 {
		t.Errorf("healthz = %+v, want ok over 2 shards × 1 worker", h)
	}
}

func TestEvalWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"name":"bubble","workload":"bubble","technologies":["cntfet32"]}`
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var jr bench.JobReport
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if !jr.OK || jr.Metrics == nil || len(jr.Implementations) != 1 {
		t.Fatalf("eval report %+v, want ok with metrics and one implementation", jr)
	}

	want, err := bench.Run(mustWorkload(t, "bubble"), xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Metrics.Checksum != want.Checksum || jr.Metrics.ART9Cycles != want.ART9Cycles {
		t.Errorf("eval metrics %+v disagree with serial run (checksum %d, cycles %d)",
			jr.Metrics, want.Checksum, want.ART9Cycles)
	}
}

func TestEvalErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tests := []struct {
		name string
		body string
		want string
	}{
		{"empty body", "", "empty request body"},
		{"bad json", "{", "decode body"},
		{"file rejected", `{"name":"x","file":"/etc/passwd"}`, "file jobs are not allowed here"},
		{"unknown workload", `{"name":"x","workload":"nope"}`, `unknown workload "nope"`},
		{"unknown tech", `{"name":"x","workload":"bubble","technologies":["tfet"]}`, "unknown technology"},
		{"both set", `{"name":"x","workload":"bubble","source":"nop"}`, "exactly one of"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tt.want) {
				t.Errorf("error %q, want containing %q", e.Error, tt.want)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval status %d, want 405", resp.StatusCode)
	}
}

// TestSuiteNDJSONRoundTrip streams the full §V-A suite through
// /v1/suite and checks (a) every line is valid JSON, (b) the streamed
// metrics are byte-equivalent to the serial reference path
// (bench.RunAllSerial) for every workload, and (c) the content type
// marks the stream as NDJSON.
func TestSuiteNDJSONRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Workers: 2})

	var m bench.Manifest
	m.Technologies = []string{"cntfet32", "stratixv"}
	for _, w := range bench.Workloads {
		m.Jobs = append(m.Jobs, bench.ManifestJob{Name: w.Name, Workload: w.Name})
	}
	body, _ := json.Marshal(m)

	resp, err := http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}

	serial, err := bench.RunAllSerial()
	if err != nil {
		t.Fatal(err)
	}
	techs, err := bench.Technologies(m.Technologies)
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]bench.JobReport{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			t.Fatal("blank NDJSON line")
		}
		var jr bench.JobReport
		if err := json.Unmarshal(line, &jr); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", line, err)
		}
		if !jr.OK {
			t.Fatalf("job %s failed: %s", jr.Name, jr.Error)
		}
		got[jr.Name] = jr
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Jobs) {
		t.Fatalf("streamed %d jobs, want %d", len(got), len(m.Jobs))
	}

	for name, o := range serial {
		jr, ok := got[name]
		if !ok {
			t.Fatalf("workload %s missing from stream", name)
		}
		wantMetrics, _ := json.Marshal(bench.MetricsReportOf(o))
		gotMetrics, _ := json.Marshal(jr.Metrics)
		if !bytes.Equal(gotMetrics, wantMetrics) {
			t.Errorf("%s: streamed metrics %s != serial %s", name, gotMetrics, wantMetrics)
		}
		wantImpls, _ := json.Marshal(bench.ImplReports(o, techs))
		gotImpls, _ := json.Marshal(jr.Implementations)
		if !bytes.Equal(gotImpls, wantImpls) {
			t.Errorf("%s: streamed implementations %s != serial %s", name, gotImpls, wantImpls)
		}
	}
}

// TestSuiteAckRows pins the acknowledged stream variant chunk
// dispatchers consume: ?ack=1 brackets the result rows with a start ack
// carrying the accepted job count and an end ack carrying the row
// count, while the plain stream stays ack-free for existing consumers.
func TestSuiteAckRows(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"technologies":["cntfet32"],"jobs":[
		{"name":"bubble","workload":"bubble"},
		{"name":"gemm","workload":"gemm"}]}`

	resp, err := http.Post(ts.URL+"/v1/suite?ack=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("malformed line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("acked stream has %d lines, want start + 2 rows + end", len(lines))
	}
	if lines[0]["ack"] != "start" || lines[0]["jobs"] != float64(2) {
		t.Errorf("first line %v, want start ack with jobs=2", lines[0])
	}
	last := lines[len(lines)-1]
	if last["ack"] != "end" || last["rows"] != float64(2) {
		t.Errorf("last line %v, want end ack with rows=2", last)
	}
	for _, row := range lines[1 : len(lines)-1] {
		if _, isAck := row["ack"]; isAck {
			t.Errorf("unexpected ack row between results: %v", row)
		}
		if row["ok"] != true {
			t.Errorf("result row %v not ok", row)
		}
	}

	// The plain stream must stay byte-compatible: no ack rows at all.
	plain, err := http.Post(ts.URL+"/v1/suite", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Body.Close()
	sc = bufio.NewScanner(plain.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("malformed line %q: %v", sc.Bytes(), err)
		}
		if _, isAck := row["ack"]; isAck {
			t.Errorf("plain stream leaked an ack row: %v", row)
		}
		rows++
	}
	if rows != 2 {
		t.Errorf("plain stream has %d rows, want 2", rows)
	}
}

// TestCapacityEndpoint pins the lightweight capacity fast path: the
// process-local pool shape with free workers, consistent with the
// snapshot /v1/stats embeds.
func TestCapacityEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/capacity")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var c engine.Capacity
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Workers != 4 || c.Free != 4 || c.Busy != 0 || c.Queue != 0 {
		t.Errorf("idle capacity %+v, want 4 workers all free", c)
	}

	post, err := http.Post(ts.URL+"/v1/capacity", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/capacity status %d, want 405", post.StatusCode)
	}

	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var sr StatsReply
	if err := json.NewDecoder(stats.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Capacity.Workers != 4 {
		t.Errorf("stats capacity %+v, want the same 4-worker snapshot", sr.Capacity)
	}
}

func TestSuiteBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tests := []struct {
		name string
		body string
		want string
	}{
		{"no jobs", `{"technologies":["cntfet32"]}`, "no jobs"},
		{"file job", `{"jobs":[{"name":"x","file":"secret.s"}]}`, "file jobs are not allowed here"},
		{"unknown tech", `{"technologies":["nand"],"jobs":[{"name":"b","workload":"bubble"}]}`, "unknown technology"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/suite", "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tt.want) {
				t.Errorf("error %q, want containing %q", e.Error, tt.want)
			}
		})
	}
}

// TestSuiteClientDisconnectCancels reads one NDJSON line of a long
// suite, then drops the connection; the request context must cancel the
// remaining jobs, observable on the engine's canceled counter.
func TestSuiteClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Dhrystone is the suite's slowest workload (~tens of ms per job);
	// 40 of them on one worker keep the stream busy for over a second,
	// so the disconnect after the first line leaves plenty queued.
	var m bench.Manifest
	for i := 0; i < 40; i++ {
		m.Jobs = append(m.Jobs, bench.ManifestJob{
			Name: fmt.Sprintf("dhrystone-%d", i), Workload: "dhrystone",
		})
	}
	body, _ := json.Marshal(m)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/suite", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first NDJSON line: %v", sc.Err())
	}
	var first bench.JobReport
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Bytes(), err)
	}
	cancel() // client walks away mid-stream; the connection closes now
	resp.Body.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.Backend().Stats()
		if st.Canceled > 0 && st.Submitted == st.Completed+st.Failed+st.Canceled+st.Rejected {
			return // remaining jobs were cancelled, none stranded
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: expected canceled jobs after client disconnect", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSuiteRequestLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Oversize body → 413, not a misleading decode error.
	big := bytes.Repeat([]byte("x"), 5<<20)
	resp, err := http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body status %d, want 413", resp.StatusCode)
	}

	// Too many jobs → 400 naming the limit, before anything runs.
	var m bench.Manifest
	for i := 0; i < 1025; i++ {
		m.Jobs = append(m.Jobs, bench.ManifestJob{Name: fmt.Sprintf("j%d", i), Workload: "bubble"})
	}
	body, _ := json.Marshal(m)
	resp, err = http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1025-job manifest status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "per-request limit") {
		t.Errorf("error %q, want the per-request job limit named", e.Error)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Workers: 1})
	if _, err := http.Post(ts.URL+"/v1/eval", "application/json",
		strings.NewReader(`{"name":"bubble","workload":"bubble"}`)); err != nil {
		t.Fatal(err)
	}
	suite, err := http.Post(ts.URL+"/v1/suite", "application/json",
		strings.NewReader(`{"jobs":[{"name":"gemm","workload":"gemm"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, suite.Body)
	suite.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Engine.Shards != 2 || len(sr.ShardStats) != 2 {
		t.Errorf("stats %+v, want 2 shards", sr.Engine)
	}
	if sr.Engine.Submitted < 2 || sr.Requests < 3 {
		t.Errorf("stats %+v / %d requests, want at least the eval and suite jobs and all three requests", sr.Engine, sr.Requests)
	}
	// The two shards sit behind a Balancer, which hands them chunks
	// through Run: the one suite stream is counted at the front.
	if sr.Engine.Streams != 1 {
		t.Errorf("stats %+v, want the suite's 1 stream counted", sr.Engine)
	}
}

// TestEvalTypedErrorStatuses pins the typed error surface of /v1/eval:
// a closed backend maps to 503 and an engine-imposed job timeout to 504,
// instead of both hiding inside a 200 row or a generic 500.
func TestEvalTypedErrorStatuses(t *testing.T) {
	t.Run("closed backend is 503", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		s.Backend().Close() // simulate drain completing under a live handler
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json",
			strings.NewReader(`{"name":"bubble","workload":"bubble"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(e.Error, "closed") {
			t.Errorf("error %q, want the closed condition named", e.Error)
		}
	})

	t.Run("job timeout is 504", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond})
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json",
			strings.NewReader(`{"name":"bubble","workload":"bubble"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", resp.StatusCode)
		}
	})

	t.Run("per-request timeout_ms is honoured", func(t *testing.T) {
		// No server-level JobTimeout: the bound comes from the request.
		// The inline program spins for millions of RV32 steps, far past
		// a 1ms budget, so the stage-boundary ctx check after the RV32
		// run trips and maps to 504.
		_, ts := newTestServer(t, Config{Workers: 1})
		body, _ := json.Marshal(map[string]any{
			"name":       "spin",
			"source":     "\tli   a0, 0\n\tli   t0, 3000000\nspin:\n\taddi t0, t0, -1\n\tbne  t0, zero, spin\n\tebreak\n",
			"timeout_ms": 1,
		})
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504 from the request-level timeout", resp.StatusCode)
		}
	})
}

// TestServeProxiesToPeer fronts one art9-serve with another configured
// proxy-only via Config.Peers — the serve→serve topology — and checks
// a suite and a single eval round-trip through the front match direct
// evaluation.
func TestServeProxiesToPeer(t *testing.T) {
	_, leaf := newTestServer(t, Config{Workers: 2})
	front, frontTS := newTestServer(t, Config{Peers: []string{leaf.URL}})

	if got := front.shardCount(); got != 1 {
		t.Errorf("front shard count %d, want 1 (the one remote client)", got)
	}

	// Liveness never blocks on the peer: workers reports local pools
	// only, so a proxy-only front answers 0 with the peer count beside.
	hz, err := http.Get(frontTS.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Workers int `json:"workers"`
		Peers   int `json:"peers"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if h.Workers != 0 || h.Peers != 1 {
		t.Errorf("front healthz workers=%d peers=%d, want 0 local workers and 1 peer", h.Workers, h.Peers)
	}

	body := `{"technologies":["cntfet32"],"jobs":[
		{"name":"bubble","workload":"bubble"},
		{"name":"gemm","workload":"gemm"}]}`
	resp, err := http.Post(frontTS.URL+"/v1/suite", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suite via front: status %d, want 200", resp.StatusCode)
	}
	want := map[string]*bench.Outcome{}
	for _, name := range []string{"bubble", "gemm"} {
		o, err := bench.Run(mustWorkload(t, name), xlate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := 0
	for sc.Scan() {
		var jr bench.JobReport
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			t.Fatalf("malformed row %q: %v", sc.Bytes(), err)
		}
		rows++
		o, ok := want[jr.Name]
		if !ok {
			t.Fatalf("unexpected row %q", jr.Name)
		}
		if !jr.OK || jr.Metrics == nil {
			t.Fatalf("row %s not ok: %s", jr.Name, jr.Error)
		}
		if jr.Metrics.Checksum != o.Checksum || jr.Metrics.ART9Cycles != o.ART9Cycles {
			t.Errorf("row %s metrics %+v disagree with direct run", jr.Name, jr.Metrics)
		}
		if len(jr.Implementations) != 1 {
			t.Errorf("row %s has %d implementations, want 1 (peer-evaluated cntfet32)", jr.Name, len(jr.Implementations))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("front streamed %d rows, want 2", rows)
	}

	evalResp, err := http.Post(frontTS.URL+"/v1/eval", "application/json",
		strings.NewReader(`{"name":"sobel","workload":"sobel","technologies":["stratixv"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer evalResp.Body.Close()
	if evalResp.StatusCode != http.StatusOK {
		t.Fatalf("eval via front: status %d, want 200", evalResp.StatusCode)
	}
	var jr bench.JobReport
	if err := json.NewDecoder(evalResp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if !jr.OK || jr.Metrics == nil || len(jr.Implementations) != 1 {
		t.Fatalf("eval via front: report %+v, want ok with one implementation", jr)
	}
}

func mustWorkload(t *testing.T, name string) bench.Workload {
	t.Helper()
	w, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing from suite", name)
	}
	return w
}

// TestSuiteFailoverSurvivesDyingBackend drives the failover stack
// through the HTTP surface: the server's backend is a Balancer over a
// scripted backend that dies after one job and a live local engine.
// The streamed NDJSON suite must still carry every row, each row's
// metrics identical to a healthy serial run, and the stats endpoint
// must expose the nonzero failover scorecard.
func TestSuiteFailoverSurvivesDyingBackend(t *testing.T) {
	// Width 2 guarantees the initial burst hands the dying backend two
	// jobs: one executes, the second trips the scripted death — a
	// deterministic mid-suite failure under any scheduling.
	flaky := faulttest.New("dying-leaf").Width(2).FailAfter(1, nil)
	bal := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		flaky, engine.New(engine.Options{Workers: 2}))
	s := NewWithBackend(bal)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// Three copies of each workload: enough jobs that the dying backend
	// is guaranteed a dispatch after its first job completes (the 4-job
	// suite can drain through the live engine before that happens).
	var m bench.Manifest
	m.Technologies = []string{"cntfet32"}
	for c := 0; c < 3; c++ {
		for _, w := range bench.Workloads {
			m.Jobs = append(m.Jobs, bench.ManifestJob{
				Name: fmt.Sprintf("%s-%d", w.Name, c), Workload: w.Name})
		}
	}
	body, _ := json.Marshal(m)

	resp, err := http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}

	got := map[string]bench.JobReport{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var jr bench.JobReport
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", sc.Bytes(), err)
		}
		if !jr.OK {
			t.Fatalf("job %s lost to the dying backend: %s", jr.Name, jr.Error)
		}
		got[jr.Name] = jr
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.Jobs) {
		t.Fatalf("streamed %d rows for %d jobs (dropped or duplicated under failover)", len(got), len(m.Jobs))
	}

	// Byte-identical to a healthy run: every row's metrics must match
	// the serial oracle exactly (rows are named workload-copy; every
	// copy of a workload carries its workload's metrics).
	serial, err := bench.RunAllSerial()
	if err != nil {
		t.Fatal(err)
	}
	for _, mj := range m.Jobs {
		jr, ok := got[mj.Name]
		if !ok {
			t.Fatalf("job %s missing from failover stream", mj.Name)
		}
		o := serial[mj.Workload]
		wantMetrics, _ := json.Marshal(bench.MetricsReportOf(o))
		gotMetrics, _ := json.Marshal(jr.Metrics)
		if !bytes.Equal(gotMetrics, wantMetrics) {
			t.Errorf("%s: failover metrics %s != healthy serial %s", mj.Name, gotMetrics, wantMetrics)
		}
	}

	// The health scorecard must record the failovers and reach clients
	// through /v1/stats; /v1/healthz must advertise the failover front.
	var failovers uint64
	for _, h := range bal.Health() {
		failovers += h.Failovers
	}
	if failovers == 0 {
		t.Error("balancer recorded no failovers though its backend died mid-suite")
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats StatsReply
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Balancer) != 2 {
		t.Fatalf("stats balancer scorecards = %d, want 2", len(stats.Balancer))
	}
	var statFailovers uint64
	for _, h := range stats.Balancer {
		statFailovers += h.Failovers
	}
	if statFailovers == 0 {
		t.Error("/v1/stats balancer scorecard shows no failovers")
	}
	hResp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hResp.Body.Close()
	var h struct {
		Failover bool `json:"failover"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Failover {
		t.Error("healthz does not advertise the failover front")
	}
}

// TestNewFailoverConfig pins the Config wiring: more than one shard
// selects a Balancer backend, which takes the balancer tuning.
func TestNewFailoverConfig(t *testing.T) {
	s, err := New(Config{Shards: 2, Workers: 1, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Backend().(*engine.Balancer); !ok {
		t.Fatalf("two-shard config built %T, want *engine.Balancer", s.Backend())
	}
	if s.shardCount() != 2 {
		t.Errorf("shardCount = %d, want 2", s.shardCount())
	}
}

// TestNewAutoscaleConfig pins the Config wiring of the elastic front:
// the autoscale bounds select an Autoscaler backend, /v1/healthz flags
// it, and /v1/stats carries the scale state next to the per-member
// scorecards.
func TestNewAutoscaleConfig(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, AutoscaleMin: 1, AutoscaleMax: 2, ScaleInterval: -1,
	})
	if _, ok := s.Backend().(*engine.Autoscaler); !ok {
		t.Fatalf("autoscale config built %T, want *engine.Autoscaler", s.Backend())
	}

	hResp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hResp.Body.Close()
	var h struct {
		Status    string `json:"status"`
		Autoscale bool   `json:"autoscale"`
		Failover  bool   `json:"failover"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Autoscale || h.Failover {
		t.Errorf("healthz = %+v, want an ok autoscale front", h)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Autoscale == nil {
		t.Fatal("stats reply carries no autoscale state")
	}
	if sr.Autoscale.Min != 1 || sr.Autoscale.Max != 2 || sr.Autoscale.ActiveShards != 1 {
		t.Errorf("autoscale state %+v, want min 1, max 2, 1 active shard", sr.Autoscale)
	}
	if len(sr.Balancer) != 1 || sr.Balancer[0].Standby || sr.Balancer[0].Retired {
		t.Errorf("member scorecards %+v, want one active local member", sr.Balancer)
	}
}

// TestNewRejectsIncoherentConfig pins serve.New's validation: the same
// rule set behind art9.New rejects orphaned tuning with a typed error
// instead of silently ignoring it.
func TestNewRejectsIncoherentConfig(t *testing.T) {
	if _, err := New(Config{Workers: 1, Chunk: 4}); !errors.Is(err, engine.ErrInvalidOptions) {
		t.Errorf("New(Chunk on a lone engine) = %v, want engine.ErrInvalidOptions", err)
	}
	if _, err := New(Config{AutoscaleMin: 3, AutoscaleMax: 1}); !errors.Is(err, engine.ErrInvalidOptions) {
		t.Errorf("New(inverted autoscale bounds) = %v, want engine.ErrInvalidOptions", err)
	}
	if _, err := New(Config{Shards: 2, AutoscaleMax: 2}); !errors.Is(err, engine.ErrInvalidOptions) {
		t.Errorf("New(fixed shards + autoscale) = %v, want engine.ErrInvalidOptions", err)
	}
}

// TestDegradedFailoverFrontIsVisible pins the tier-composition story: a
// failover front whose backends are all down answers 503 on both
// /v1/healthz (so an upper balancer's probe routes around it) and
// /v1/eval (so an upper tier re-runs the job elsewhere), with the
// unavailable kind stamped on suite rows.
func TestDegradedFailoverFrontIsVisible(t *testing.T) {
	dead := faulttest.New("dead-leaf")
	bal := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, MaxRetries: -1}, dead)
	s := NewWithBackend(bal)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	dead.Kill(nil)
	// One failed round marks the backend down reactively.
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json",
		strings.NewReader(`{"name":"bubble","workload":"bubble"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("eval against all-dead failover front: status %d, want 503", resp.StatusCode)
	}

	hResp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz of degraded front: status %d, want 503", hResp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("healthz status %q, want degraded", h.Status)
	}
}
