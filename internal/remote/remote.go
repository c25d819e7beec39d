// Package remote is the multi-machine backend of the evaluation stack:
// an engine.Evaluator whose "worker pool" is another art9-serve instance
// reached over HTTP. Every batch travels over one wire path, the
// acknowledged /v1/suite stream (?ack=1): the client consumes the NDJSON
// rows the moment the peer flushes them, and the peer's end
// acknowledgement tells a complete stream from a severed one. Any
// running art9-serve is therefore already a valid peer.
//
// Because a Client is just an Evaluator, it composes with everything
// else behind that interface: an engine.Balancer over a local engine and
// a client splits one batch between this process and a peer, art9-serve
// -peers fronts a fleet of other art9-serve instances, and fronts of
// fronts build arbitrary topologies. NewBackendWith builds the standard
// shapes from a BackendConfig, the one declaration of a fleet topology:
// art9's functional options write into it, serve.Config is an alias of
// it, and FleetFlags reads it from the flags art9-batch and art9-serve
// share.
//
// Jobs are shipped by their engine.Job.Spec (a *bench.JobSpec, attached
// by bench.SuiteJobs / Manifest.EngineJobs): the program travels inline
// as source text, never as a server-side path. Jobs without one (no spec,
// or a spec of another type) fail fast with ErrNotRemotable instead of
// contacting the peer.
//
// Failure surface: connection errors at dial are retried a bounded
// number of times with exponential backoff; a peer dying mid-stream
// resolves the rows already received normally and the rest with a
// stream error; cancelling the caller's context aborts the in-flight
// request and resolves outstanding jobs with the context error; HTTP
// 503/504 from the peer unwrap to engine.ErrClosed / engine.ErrTimeout.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
)

// ErrNotRemotable is wrapped into the result of any job submitted to a
// Client without a serializable spec (engine.Job.Spec).
var ErrNotRemotable = errors.New("remote: job carries no serializable spec")

// ErrStatsUnavailable marks a failed peer stats scrape: the peer was
// unreachable, answered a non-200, or sent a malformed body. PeerStats
// wraps every failure with it, and Stats — whose Evaluator signature
// cannot carry an error — records it for StatsErr instead of silently
// hiding the transport failure behind the local-counter fallback.
var ErrStatsUnavailable = errors.New("remote: peer stats unavailable")

// maxRow bounds one NDJSON line from the peer.
const maxRow = 1 << 20

// Chunking limits for one /v1/suite request, chosen to stay inside the
// serve layer's per-request caps (maxSuiteJobs = 1024, maxBody = 4 MiB)
// with headroom — a batch that runs locally must not fail wholesale
// just because it crossed the wire in one piece.
const (
	maxJobsPerRequest = 1024
	maxRequestBytes   = 2 << 20
)

// Option configures a Client.
type Option func(*Client)

// WithRetries sets how many times a request is re-dialled after a
// connect error (default 2; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithRetryDelay sets the first retry's backoff delay, doubled per
// attempt (default 100ms).
func WithRetryDelay(d time.Duration) Option { return func(c *Client) { c.retryDelay = d } }

// WithHTTPClient substitutes the transport (tests, custom TLS). The
// client must not impose a global timeout — suite streams are
// long-lived; bound work with the caller's context instead.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithStatsTimeout bounds the /v1/stats scrape performed by Stats()
// (default 2s).
func WithStatsTimeout(d time.Duration) Option { return func(c *Client) { c.statsTimeout = d } }

// Client is the remote-peer backend. Create with New; a zero Client is
// not usable.
type Client struct {
	base         string
	hc           *http.Client
	retries      int
	retryDelay   time.Duration
	statsTimeout time.Duration

	closed atomic.Bool

	// statsMu guards lastStatsErr, the outcome of the most recent
	// Stats() scrape (see StatsErr).
	statsMu      sync.Mutex
	lastStatsErr error

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	rejected  atomic.Uint64
	streams   atomic.Uint64
}

var (
	_ engine.Evaluator        = (*Client)(nil)
	_ engine.Prober           = (*Client)(nil)
	_ engine.ChunkDispatcher  = (*Client)(nil)
	_ engine.CapacityReporter = (*Client)(nil)
)

// New builds a client for one art9-serve base URL (e.g.
// "http://host:9009"). The URL is validated here so a misconfigured
// fleet fails at construction, not first use.
func New(baseURL string, opts ...Option) (*Client, error) {
	base, err := parseBaseURL("peer url", baseURL)
	if err != nil {
		return nil, err
	}
	c := &Client{
		base:         base,
		hc:           &http.Client{},
		retries:      2,
		retryDelay:   100 * time.Millisecond,
		statsTimeout: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Peer returns the normalized base URL this client proxies to.
func (c *Client) Peer() string { return c.base }

// parseBaseURL validates an art9-serve base URL for either client and
// returns it without a trailing slash; what names the URL in errors.
func parseBaseURL(what, raw string) (string, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return "", fmt.Errorf("remote: %s %q: %w", what, raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("remote: %s %q: scheme must be http or https", what, raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("remote: %s %q: missing host", what, raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// Close marks the client closed — subsequent batches resolve with
// engine.ErrClosed — and releases idle connections. In-flight requests
// are not interrupted; they are bounded by their own contexts.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.hc.CloseIdleConnections()
	return nil
}

// Run ships the batch to the peer and returns one result per job in
// submission order — engine.Evaluator Run semantics over HTTP (see
// resolve). The returned error is non-nil only when ctx ended before the
// batch resolved.
func (c *Client) Run(ctx context.Context, jobs []engine.Job) ([]engine.Result, error) {
	out := make([]engine.Result, len(jobs))
	c.resolve(ctx, jobs, func(i int, r engine.Result) { out[i] = r })
	return out, ctx.Err()
}

// Stream ships the batch to the peer and yields each job's result the
// moment its NDJSON row arrives — the peer emits rows in its own
// completion order, so the channel preserves the same contract as
// Engine.Stream. The channel is buffered to len(jobs) and always
// closes.
func (c *Client) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	c.streams.Add(1)
	out := make(chan engine.Result, len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	go func() {
		defer close(out)
		c.resolve(ctx, jobs, func(_ int, r engine.Result) { out <- r })
	}()
	return out
}

// resolve runs the batch as one DispatchChunk and resolves every job
// exactly once through emit(jobIndex, result): each acknowledged job as
// its row arrives, every job the chunk left unacknowledged with the
// error DispatchChunk returned (engine.ErrClosed for a closed client).
func (c *Client) resolve(ctx context.Context, jobs []engine.Job, emit func(int, engine.Result)) {
	acked := make([]bool, len(jobs))
	err := c.DispatchChunk(ctx, jobs, func(i int, r engine.Result) {
		acked[i] = true
		emit(i, r)
	})
	if err == nil {
		return
	}
	for i, j := range jobs {
		if !acked[i] {
			emit(i, engine.Result{ID: j.ID, Err: err, Worker: -1})
		}
	}
}

// Stats scrapes the peer's /v1/stats and reports the peer's engine
// counters — the fleet view a front end aggregates. When the scrape
// fails it falls back to this client's local counters (Workers 0,
// marking the shard as contributing no live pool) and records the
// typed failure for StatsErr, so a fallback is observable rather than
// silently indistinguishable from a healthy scrape.
func (c *Client) Stats() engine.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), c.statsTimeout)
	defer cancel()
	st, err := c.PeerStats(ctx)
	c.statsMu.Lock()
	c.lastStatsErr = err
	c.statsMu.Unlock()
	if err != nil {
		return c.LocalStats()
	}
	return st
}

// StatsErr returns the outcome of the most recent Stats scrape: nil
// after a clean peer scrape, an ErrStatsUnavailable-wrapped error when
// Stats fell back to local counters. It is nil before the first scrape.
func (c *Client) StatsErr() error {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.lastStatsErr
}

// Probe answers the engine.Prober liveness check with a GET
// /v1/healthz, bounded by ctx. A closed client reports engine.ErrClosed
// without touching the network; an unreachable or unhealthy peer
// reports an engine.ErrUnavailable-wrapped error.
func (c *Client) Probe(ctx context.Context) error {
	if c.closed.Load() {
		return engine.ErrClosed
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return fmt.Errorf("remote %s: healthz: %w", c.base, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("remote %s: healthz: %w: %w", c.base, engine.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote %s: healthz: %w: %s", c.base, engine.ErrUnavailable, resp.Status)
	}
	return nil
}

// LocalStats returns the counters of work submitted through this client
// only, balanced the same way engine.Stats documents.
func (c *Client) LocalStats() engine.Stats {
	return engine.Stats{
		Submitted: c.submitted.Load(),
		Completed: c.completed.Load(),
		Failed:    c.failed.Load(),
		Canceled:  c.canceled.Load(),
		Rejected:  c.rejected.Load(),
		Streams:   c.streams.Load(),
	}
}

// PeerStats fetches the peer's aggregate engine counters from
// GET /v1/stats.
func (c *Client) PeerStats(ctx context.Context) (engine.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return engine.Stats{}, fmt.Errorf("%w (%s): %w", ErrStatsUnavailable, c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return engine.Stats{}, fmt.Errorf("%w (%s): %s", ErrStatsUnavailable, c.base, resp.Status)
	}
	var body struct {
		Engine bench.EngineReport `json:"engine"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&body); err != nil {
		return engine.Stats{}, fmt.Errorf("%w (%s): decode: %w", ErrStatsUnavailable, c.base, err)
	}
	return engine.Stats{
		Workers:   body.Engine.Workers,
		Submitted: body.Engine.Submitted,
		Completed: body.Engine.Completed,
		Failed:    body.Engine.Failed,
		Canceled:  body.Engine.Canceled,
		Rejected:  body.Engine.Rejected,
		Streams:   body.Engine.Streams,
	}, nil
}

// pendingJob tracks one not-yet-acknowledged job of a wire chunk: its
// index in the batch and its original (pre-deduplication) name.
type pendingJob struct {
	index int
	name  string
}

// wireEntry pairs one manifest entry with its pending-job bookkeeping.
type wireEntry struct {
	mj bench.ManifestJob
	pj pendingJob
}

// buildWireChunks renders the jobs at idx as manifest entries and
// splits them so no single request exceeds the peer's per-request job
// or body caps. Wire names are made unique across the whole group
// (duplicates get a "#n" suffix, undone before the row is emitted), so
// every row correlates to exactly the job that produced it even when a
// batch repeats a name with different work attached.
func buildWireChunks(jobs []engine.Job, specs []*bench.JobSpec, idx []int) [][]wireEntry {
	used := make(map[string]bool, len(idx))
	var chunks [][]wireEntry
	var cur []wireEntry
	size := 0
	for _, i := range idx {
		mj := wireJobOf(jobs[i], specs[i])
		orig := mj.Name
		for n := 2; used[mj.Name]; n++ {
			mj.Name = fmt.Sprintf("%s#%d", orig, n)
		}
		used[mj.Name] = true
		// Approximate this entry's marshalled footprint; 96 covers the
		// field names, quoting and numeric fields.
		esz := len(mj.Name) + len(mj.Source) + len(mj.Workload) + 96
		if len(cur) > 0 && (len(cur) >= maxJobsPerRequest || size+esz > maxRequestBytes) {
			chunks = append(chunks, cur)
			cur, size = nil, 0
		}
		cur = append(cur, wireEntry{mj: mj, pj: pendingJob{index: i, name: orig}})
		size += esz
	}
	return append(chunks, cur)
}

// DispatchChunk implements engine.ChunkDispatcher: the chunk travels
// over the acknowledged /v1/suite stream variant (?ack=1) — one request
// per distinct technology list, split further only if the chunk
// exceeds the peer's per-request caps — and every arriving NDJSON row
// acknowledges its job through ack. On a chunk-level failure (the peer
// unreachable, the stream severed before the peer's end
// acknowledgement) the unacknowledged jobs are left entirely
// unresolved and the classified error is returned: the caller — a
// chunking engine.Balancer — owns re-dispatching exactly those jobs,
// so rows that already arrived are never re-run.
func (c *Client) DispatchChunk(ctx context.Context, jobs []engine.Job, ack func(int, engine.Result)) error {
	c.submitted.Add(uint64(len(jobs)))
	if c.closed.Load() {
		c.rejected.Add(uint64(len(jobs)))
		return engine.ErrClosed
	}
	acked := make([]bool, len(jobs))
	wrap := func(i int, r engine.Result) {
		if i >= 0 && i < len(jobs) && !acked[i] {
			acked[i] = true
			ack(i, r)
		}
	}
	var valid []int
	specs := make([]*bench.JobSpec, len(jobs))
	for i, j := range jobs {
		spec, _ := j.Spec.(*bench.JobSpec)
		if spec == nil {
			// A job without the *bench.JobSpec every producer attaches
			// cannot travel at all: acknowledge the job-level failure
			// inline so the balancer does not re-try a job that can
			// never reach a peer.
			c.failed.Add(1)
			wrap(i, engine.Result{ID: j.ID, Err: fmt.Errorf("%w (job %q)", ErrNotRemotable, j.ID), Worker: -1})
			continue
		}
		specs[i] = spec
		valid = append(valid, i)
	}
	groups := map[string][]int{}
	var order []string
	for _, i := range valid {
		key := strings.Join(specs[i].Technologies, "\x00")
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	// Groups run sequentially: one chunk is one dispatch decision, and
	// concurrency across chunks belongs to the balancer placing them.
	var chunkErr error
	for _, key := range order {
		idx := groups[key]
		techs := specs[idx[0]].Technologies
		for _, entries := range buildWireChunks(jobs, specs, idx) {
			if chunkErr = c.ackPost(ctx, techs, entries, jobs, wrap); chunkErr != nil {
				break
			}
		}
		if chunkErr != nil {
			break
		}
	}
	if chunkErr != nil {
		// Book the jobs this client never resolved so LocalStats stays
		// balanced; their verdicts belong to whichever backend re-runs
		// them.
		for i := range jobs {
			if !acked[i] {
				c.countFailure(chunkErr)
			}
		}
	}
	return chunkErr
}

// ackPost ships one wire chunk through POST /v1/suite?ack=1, resolving
// each job as its row arrives and watching for the peer's end
// acknowledgement — the marker that distinguishes a complete stream
// from a severed one.
func (c *Client) ackPost(ctx context.Context, techs []string, entries []wireEntry, jobs []engine.Job, ack func(int, engine.Result)) error {
	m := bench.Manifest{Technologies: techs}
	pending := make(map[string]pendingJob, len(entries))
	for _, e := range entries {
		m.Jobs = append(m.Jobs, e.mj)
		pending[e.mj.Name] = e.pj
	}
	body, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("remote %s: encode manifest: %w", c.base, err)
	}
	resp, err := c.post(ctx, "/v1/suite?ack=1", body)
	if err != nil {
		return c.classify(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.statusErr(resp)
	}
	ended := false
	streamErr := scanAckRows(resp.Body,
		func(jr bench.JobReport) bool {
			p, ok := pending[jr.Name]
			if !ok {
				// A row for a job we never sent (or already resolved):
				// ignore it rather than mis-crediting some other job.
				return true
			}
			delete(pending, jr.Name)
			row := jr
			row.Name = p.name // undo any wire-level "#n" deduplication
			ack(p.index, c.rowResult(jobs[p.index].ID, &row))
			return true // scan on to the end ack
		},
		func(a ackRow) bool {
			if a.Ack == "end" {
				ended = true
				return false
			}
			return true // "start" (and future kinds) just confirm liveness
		})
	switch {
	case streamErr != nil:
		return c.classify(ctx, fmt.Errorf("remote %s: chunk stream: %w", c.base, streamErr))
	case !ended && len(pending) > 0:
		return c.classify(ctx, fmt.Errorf("remote %s: chunk stream severed with %d jobs unacknowledged: %w",
			c.base, len(pending), engine.ErrUnavailable))
	case len(pending) > 0:
		// The peer signalled a clean end yet skipped rows — a peer-side
		// fault, resolved as backend-level failures so a balancer may
		// re-run them elsewhere.
		missErr := c.classify(ctx, fmt.Errorf("remote %s: peer ended chunk stream with %d jobs unresolved: %w",
			c.base, len(pending), engine.ErrUnavailable))
		for _, p := range pending {
			c.countFailure(missErr)
			ack(p.index, engine.Result{ID: jobs[p.index].ID, Err: missErr, Worker: -1})
		}
	}
	return nil
}

// ackRow is one acknowledgement line of the ?ack=1 /v1/suite stream
// variant, which internal/serve writes as SuiteAck: "start" when the
// peer accepted the chunk, "end" after the last result row. The end ack's absence is
// how a severed stream is told apart from a complete one.
type ackRow struct {
	Ack  string `json:"ack"`
	Jobs int    `json:"jobs,omitempty"`
	Rows int    `json:"rows,omitempty"`
}

// scanAckRows consumes the acknowledged NDJSON stream variant: result
// rows go to onRow, acknowledgement rows to onAck, and either handler
// returning false stops the scan cleanly. The row kind is detected by
// the "ack" field, which a JobReport never carries. Blank lines are
// skipped; a malformed or over-long line stops the scan with an error.
// This is the client's one row parser, extracted so it can be fuzzed
// directly against arbitrary peer bytes. The line buffer
// starts at the scanner's 4 KiB and grows only as rows require, up to
// maxRow: per-job dispatch sends one short acknowledged stream per job.
func scanAckRows(r io.Reader, onRow func(bench.JobReport) bool, onAck func(ackRow) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxRow)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Ack string `json:"ack"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("malformed NDJSON row %.80q: %w", line, err)
		}
		if probe.Ack != "" {
			var a ackRow
			if err := json.Unmarshal(line, &a); err != nil {
				return fmt.Errorf("malformed ack row %.80q: %w", line, err)
			}
			if !onAck(a) {
				return nil
			}
			continue
		}
		var jr bench.JobReport
		if err := json.Unmarshal(line, &jr); err != nil {
			return fmt.Errorf("malformed NDJSON row %.80q: %w", line, err)
		}
		if !onRow(jr) {
			return nil
		}
	}
	return sc.Err()
}

// Capacity implements engine.CapacityReporter with a GET /v1/capacity
// scrape — the lightweight fast path the balancer's probe loop folds
// into chunk sizing — falling back to deriving the snapshot from
// /v1/stats for peers that predate the endpoint.
func (c *Client) Capacity(ctx context.Context) (engine.Capacity, error) {
	if c.closed.Load() {
		return engine.Capacity{}, engine.ErrClosed
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/capacity", nil)
	if err != nil {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: %w", c.base, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: %w: %w", c.base, engine.ErrUnavailable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxRow))
		st, err := c.PeerStats(ctx)
		if err != nil {
			return engine.Capacity{}, err
		}
		return engine.CapacityFromStats(st), nil
	}
	if resp.StatusCode != http.StatusOK {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: %w: %s", c.base, engine.ErrUnavailable, resp.Status)
	}
	var snap engine.Capacity
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&snap); err != nil {
		return engine.Capacity{}, fmt.Errorf("remote %s: capacity: decode: %w", c.base, err)
	}
	return snap, nil
}

// wireJobOf renders one job as the manifest entry shipped to the peer:
// the spec's entry, defaulting the name to the job ID and forwarding an
// engine-level per-job timeout the spec did not already carry.
func wireJobOf(j engine.Job, spec *bench.JobSpec) bench.ManifestJob {
	mj := spec.Job
	if mj.Name == "" {
		mj.Name = j.ID
	}
	if mj.TimeoutMS == 0 && j.Timeout > 0 {
		mj.TimeoutMS = j.Timeout.Milliseconds()
	}
	return mj
}

// rowResult converts one peer report row into an engine result,
// preserving the peer's elapsed time and worker index.
func (c *Client) rowResult(id string, jr *bench.JobReport) engine.Result {
	r := engine.Result{
		ID:      id,
		Value:   jr,
		Elapsed: time.Duration(jr.ElapsedMS * float64(time.Millisecond)),
		Worker:  jr.Worker,
	}
	if jr.OK {
		c.completed.Add(1)
		return r
	}
	c.failed.Add(1)
	// Re-type the classified failures so errors.Is works the same
	// whether the job failed in-process or in a peer's NDJSON row —
	// "unavailable" in particular keeps failover composing across
	// serve→serve tiers (an upper Balancer re-runs the job elsewhere).
	switch jr.ErrorKind {
	case "closed":
		r.Err = fmt.Errorf("remote %s: job %q: %w: %s", c.base, jr.Name, engine.ErrClosed, jr.Error)
	case "timeout":
		r.Err = fmt.Errorf("remote %s: job %q: %w: %s", c.base, jr.Name, engine.ErrTimeout, jr.Error)
	case "unavailable":
		r.Err = fmt.Errorf("remote %s: job %q: %w: %s", c.base, jr.Name, engine.ErrUnavailable, jr.Error)
	default:
		r.Err = fmt.Errorf("remote %s: job %q: %s", c.base, jr.Name, jr.Error)
	}
	return r
}

// countFailure books one unresolved job as canceled (the caller's
// context ended) or failed (everything else), keeping LocalStats
// balanced the way engine.Stats documents.
func (c *Client) countFailure(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.canceled.Add(1)
	} else {
		c.failed.Add(1)
	}
}

// classify folds the caller's context ending into the context's own
// error; anything else is a peer failure, wrapped with
// engine.ErrUnavailable (unless already carrying a typed verdict) so a
// Balancer knows the job itself never got a verdict and may be re-run
// on another backend.
func (c *Client) classify(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("remote %s: %w", c.base, ctxErr)
	}
	if errors.Is(err, engine.ErrClosed) || errors.Is(err, engine.ErrTimeout) ||
		errors.Is(err, engine.ErrUnavailable) || errors.Is(err, ErrNotRemotable) {
		return err
	}
	return fmt.Errorf("%w: %w", engine.ErrUnavailable, err)
}

// statusErr renders a non-200 peer response, unwrapping the typed
// conditions the serve layer maps: 503 (peer draining/closed, or —
// when the body's error_kind says "unavailable" — a peer whose own
// backends are unreachable) and 504 (peer-side evaluation timeout).
// Distinguishing the two 503 kinds keeps errors.Is answers identical
// across serve→serve tiers.
func (c *Client) statusErr(resp *http.Response) error {
	var body struct {
		Error     string `json:"error"`
		ErrorKind string `json:"error_kind"`
	}
	json.NewDecoder(io.LimitReader(resp.Body, maxRow)).Decode(&body)
	msg := body.Error
	if msg == "" {
		msg = resp.Status
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable && body.ErrorKind == "unavailable":
		return fmt.Errorf("remote %s: %w: %s", c.base, engine.ErrUnavailable, msg)
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("remote %s: %w: %s", c.base, engine.ErrClosed, msg)
	case resp.StatusCode == http.StatusGatewayTimeout:
		return fmt.Errorf("remote %s: %w: %s", c.base, engine.ErrTimeout, msg)
	default:
		return fmt.Errorf("remote %s: peer returned %d: %s", c.base, resp.StatusCode, msg)
	}
}

// post issues one POST, re-dialling on connect errors up to the retry
// budget with exponential backoff. Only errors raised before the peer
// accepted the connection are retried — once bytes may have flowed, the
// caller owns the failure (re-sending could double-evaluate).
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("remote %s: %w", c.base, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = fmt.Errorf("remote %s: %w", c.base, err)
		if attempt >= c.retries || !isConnectError(err) || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("remote %s: %w", c.base, ctx.Err())
		case <-time.After(c.retryDelay << attempt):
		}
	}
}

// isConnectError reports whether err happened while dialling — the peer
// was down or unreachable, the retryable window where no request bytes
// were accepted.
func isConnectError(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// optionNames maps each fleet-configuration knob to the name a user
// knows it by, so the one validation rule set renders identical
// diagnostics for library callers (functional options) and CLI
// operators (flags).
type optionNames struct {
	chunk, maxRetries, healthInterval             string
	autoscale, standbyPeers, shards, peers        string
	scaleThresholds, scaleCooldown, scaleInterval string
	cache, cachePeers, cacheMaxBytes, cacheEpoch  string
}

var libraryNames = optionNames{
	chunk:      "WithChunk",
	maxRetries: "WithMaxRetries", healthInterval: "WithHealthInterval",
	autoscale: "WithAutoscale", standbyPeers: "WithStandbyPeers",
	shards: "WithShards", peers: "WithPeers",
	scaleThresholds: "WithScaleThresholds",
	scaleCooldown:   "WithScaleCooldown", scaleInterval: "WithScaleInterval",
	cache: "WithResultCache", cachePeers: "WithCachePeers",
	cacheMaxBytes: "WithCacheMaxBytes", cacheEpoch: "WithCacheEpoch",
}

var flagNames = optionNames{
	chunk:      "-chunk",
	maxRetries: "-max-retries", healthInterval: "-health-interval",
	autoscale: "-autoscale-min/-autoscale-max", standbyPeers: "-standby-peers",
	shards: "-shards", peers: "-peers",
	scaleThresholds: "-scale-up/-scale-down",
	scaleCooldown:   "-scale-cooldown", scaleInterval: "-scale-interval",
	cache: "-cache", cachePeers: "-cache-peers",
	cacheMaxBytes: "-cache-max-bytes", cacheEpoch: "-cache-epoch",
}

// validateTopology is the one rule set, applied by NewBackendWith with
// libraryNames and by FleetFlags with flagNames: options that only tune
// an absent front (balancer tuning where NewBackendWith builds no
// Balancer, scale tuning or standby peers without Autoscale, cache
// tuning without Cache) error out, since silently ignoring them would
// leave the user believing they are in effect; incoherent autoscale
// bounds and thresholds, and autoscaling with a fixed shard count,
// error out; an autoscaled pool that can never scale warns (the CLIs
// print it; the library ignores it). Hard errors wrap
// engine.ErrInvalidOptions.
func validateTopology(cfg BackendConfig, n optionNames) (warning string, err error) {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf(format+": %w", append(args, engine.ErrInvalidOptions)...)
	}
	if cfg.Chunk < 0 {
		return "", invalid("%s must be >= 0 (got %d)", n.chunk, cfg.Chunk)
	}
	if cfg.CacheMaxBytes < 0 {
		return "", invalid("%s must be >= 0 (got %d)", n.cacheMaxBytes, cfg.CacheMaxBytes)
	}
	if !cfg.Cache {
		var orphaned []string
		if len(cfg.CachePeers) > 0 {
			orphaned = append(orphaned, n.cachePeers)
		}
		if cfg.CacheMaxBytes != 0 {
			orphaned = append(orphaned, n.cacheMaxBytes)
		}
		if cfg.CacheEpoch != 0 {
			orphaned = append(orphaned, n.cacheEpoch)
		}
		if len(orphaned) > 0 {
			return "", invalid("%s: only meaningful with %s (otherwise silently ignored); add %s or drop it",
				strings.Join(orphaned, ", "), n.cache, n.cache)
		}
	}
	autoscale := cfg.AutoscaleMin != 0 || cfg.AutoscaleMax != 0
	if !autoscale && !cfg.balanced() {
		var orphaned []string
		if cfg.Chunk > 0 {
			orphaned = append(orphaned, n.chunk)
		}
		if cfg.MaxRetries != 0 {
			orphaned = append(orphaned, n.maxRetries)
		}
		if cfg.HealthInterval != 0 {
			orphaned = append(orphaned, n.healthInterval)
		}
		if len(orphaned) > 0 {
			return "", invalid("%s: only meaningful over several backends, and a lone local engine has nothing to fail over to; add %s or %s above 1, or drop it",
				strings.Join(orphaned, ", "), n.peers, n.shards)
		}
	}
	if !autoscale {
		var orphaned []string
		if len(cfg.StandbyPeers) > 0 {
			orphaned = append(orphaned, n.standbyPeers)
		}
		if cfg.ScaleUpThreshold != 0 || cfg.ScaleDownThreshold != 0 {
			orphaned = append(orphaned, n.scaleThresholds)
		}
		if cfg.ScaleCooldown != 0 {
			orphaned = append(orphaned, n.scaleCooldown)
		}
		if cfg.ScaleInterval != 0 {
			orphaned = append(orphaned, n.scaleInterval)
		}
		if len(orphaned) > 0 {
			return "", invalid("%s: only meaningful with %s (otherwise silently ignored); add %s or drop it",
				strings.Join(orphaned, ", "), n.autoscale, n.autoscale)
		}
		return "", nil
	}
	if cfg.AutoscaleMin < 0 || cfg.AutoscaleMax < 0 {
		return "", invalid("%s bounds must be >= 0 (got min %d, max %d)",
			n.autoscale, cfg.AutoscaleMin, cfg.AutoscaleMax)
	}
	if cfg.AutoscaleMax < cfg.AutoscaleMin {
		return "", invalid("%s bounds inverted: max %d < min %d",
			n.autoscale, cfg.AutoscaleMax, cfg.AutoscaleMin)
	}
	// The pool's local shard count floats between the bounds, so a
	// fixed one cannot compose with it; fixed peers can, as members the
	// policy never retires.
	if cfg.Shards > 0 {
		return "", invalid("%s fixes the shard count, which contradicts %s; drop %s (the pool floats between the bounds)",
			n.shards, n.autoscale, n.shards)
	}
	up, down := cfg.ScaleUpThreshold, cfg.ScaleDownThreshold
	if up < 0 || up > 1 || down < 0 || down >= 1 {
		return "", invalid("%s thresholds must be within [0,1] with down < 1 (got up %g, down %g)",
			n.scaleThresholds, up, down)
	}
	if up, down := engine.ScaleThresholds(up, down); down >= up {
		return "", invalid("%s scale-down threshold %g must be below the scale-up threshold %g (hysteresis needs a gap)",
			n.scaleThresholds, down, up)
	}
	if cfg.AutoscaleMin == cfg.AutoscaleMax && len(cfg.StandbyPeers) == 0 {
		return fmt.Sprintf("%s bounds pin the pool at %d with no standby peers; nothing will ever scale",
			n.autoscale, cfg.AutoscaleMax), nil
	}
	return "", nil
}

// BackendConfig is the one declaration of a fleet topology: what
// NewBackendWith builds, what art9's functional options and serve.Config
// (an alias) set, and what FleetFlags reads from both CLIs' flags.
type BackendConfig struct {
	// Shards is the number of local engines (0: one, unless Peers makes
	// a proxy-only topology meaningful).
	Shards int
	// Workers is each local shard's pool size (0 selects GOMAXPROCS).
	Workers int
	// JobTimeout bounds each local evaluation job unless the job sets
	// its own Timeout; 0 means no deadline.
	JobTimeout time.Duration
	// Peers lists art9-serve base URLs, one remote Client each. Do not
	// point a fleet at itself: a cycle proxies forever.
	Peers []string
	// HealthInterval and MaxRetries tune the engine.Balancer that fronts
	// more than one local shard, any peer, or an autoscaled pool
	// (engine defaults apply at zero, except that an autoscaled pool
	// runs no probe loop unless HealthInterval is set; MaxRetries -1
	// turns failover off, HealthInterval -1 the probe loop). An error
	// on a lone local engine, which has no balancer to tune.
	HealthInterval time.Duration
	MaxRetries     int
	// Chunk makes the Balancer dispatch in chunks of up to this many
	// jobs — remote backends receive a chunk as one acknowledged
	// /v1/suite stream, sized down by scraped live capacity. 0 or 1
	// places each job on its own, one acknowledged stream per job. An
	// error where HealthInterval and MaxRetries are.
	Chunk int
	// AutoscaleMin and AutoscaleMax, when either is non-zero, make the
	// Balancer an elastic pool (engine.NewAutoscaler): its local shard
	// count floats between the bounds (min 0 selects 1) driven by queue
	// depth and utilization, and Peers join it as fixed members the
	// pool never retires. Incompatible with Shards, which would fix the
	// local count.
	AutoscaleMin, AutoscaleMax int
	// StandbyPeers lists art9-serve base URLs the autoscaler dials only
	// when the local bound is exhausted and retires first when load
	// drops. URLs are validated at construction; connections happen at
	// scale-up. Requires autoscaling.
	StandbyPeers []string
	// ScaleUpThreshold and ScaleDownThreshold are the hysteresis bounds
	// on pool utilization (0 selects 0.8 and 0.25); ScaleCooldown is
	// the minimum gap between scale events (0 selects 2s, negative
	// none) and ScaleInterval the evaluation period (0 selects 1s,
	// negative manual-only). All require autoscaling.
	ScaleUpThreshold, ScaleDownThreshold float64
	ScaleCooldown, ScaleInterval         time.Duration
	// Cache enables the fleet-wide result cache: the dispatch front
	// consults a content-addressed store before placing a job, so a hit
	// short-circuits evaluation entirely (Worker -1). The store is a
	// bounded local LRU (CacheMaxBytes, 0 selects the rescache default)
	// fronting one /v1/cache client per CachePeers URL; serve exposes
	// the same store to siblings on its /v1/cache endpoints.
	// CachePeers and CacheMaxBytes require Cache.
	Cache         bool
	CacheMaxBytes int64
	CachePeers    []string
	// CacheEpoch is the fleet-wide invalidation generation: it is
	// stamped onto every /v1/cache exchange and folded into the tier,
	// so bumping it abandons every previously cached row without
	// touching peers still on the old generation (their rows become
	// standing misses). Requires Cache.
	CacheEpoch uint64
}

// balanced reports whether the fixed topology has a Balancer front: any
// peer, or more than one local shard. Only a lone local engine has none.
func (cfg BackendConfig) balanced() bool {
	return len(cfg.Peers) > 0 || cfg.Shards > 1
}

// NewBackendWith assembles the standard backend topology shared by
// art9.New, serve.New and art9-batch. It builds exactly one of two
// shapes: a bare local Engine for one local shard, no peers and no
// autoscale bounds (the default); otherwise a health-aware Balancer
// over one Client per peer URL plus Shards local engines, or, when
// autoscale bounds are set, an elastic pool of local engines
// (engine.NewAutoscaler). The result cache attaches to the front that
// places jobs — the Balancer or the lone engine — which also closes
// it. Incoherent configurations are rejected with an error wrapping
// engine.ErrInvalidOptions that names the art9 options.
func NewBackendWith(cfg BackendConfig) (engine.Evaluator, error) {
	if _, err := validateTopology(cfg, libraryNames); err != nil {
		return nil, err
	}
	// Clients hold no resources until they carry a job, so building them
	// first lets a bad peer or standby URL fail before the cache tier,
	// whose fill worker would then need closing, exists.
	var peers []engine.Evaluator
	for _, p := range cfg.Peers {
		client, err := New(p)
		if err != nil {
			return nil, err
		}
		peers = append(peers, client)
	}
	var standbys []engine.StandbyBackend
	for _, p := range cfg.StandbyPeers {
		p := p
		// Validate eagerly so a misconfigured fleet fails at
		// construction, not at the first burst; the probe client is
		// discarded and each recruitment dials fresh.
		probe, err := New(p)
		if err != nil {
			return nil, err
		}
		// The probe never carried a job, so its close verdict is
		// uninteresting by construction.
		_ = probe.Close()
		standbys = append(standbys, engine.StandbyBackend{
			Name: p,
			Dial: func() (engine.Evaluator, error) { return New(p) },
		})
	}
	eo := engine.Options{Workers: cfg.Workers, JobTimeout: cfg.JobTimeout}
	var resultCache engine.ResultCache
	if cfg.Cache {
		tier, err := NewResultCacheWith(ResultCacheConfig{
			MaxBytes: cfg.CacheMaxBytes,
			Peers:    cfg.CachePeers,
			Epoch:    cfg.CacheEpoch,
		})
		if err != nil {
			return nil, err
		}
		resultCache = bench.NewResultCache(tier)
	}
	bo := engine.BalancerOptions{
		MaxRetries:     cfg.MaxRetries,
		HealthInterval: cfg.HealthInterval,
		Chunk:          cfg.Chunk,
		Cache:          resultCache,
	}
	if cfg.AutoscaleMin != 0 || cfg.AutoscaleMax != 0 {
		return engine.NewAutoscaler(engine.AutoscalerOptions{
			BalancerOptions: bo,
			Min:             cfg.AutoscaleMin,
			Max:             cfg.AutoscaleMax,
			Engine:          eo,
			Standby:         standbys,
			UpThreshold:     cfg.ScaleUpThreshold,
			DownThreshold:   cfg.ScaleDownThreshold,
			Cooldown:        cfg.ScaleCooldown,
			Interval:        cfg.ScaleInterval,
		}, peers...), nil
	}
	if !cfg.balanced() {
		eo.Cache = resultCache
		return engine.New(eo), nil
	}
	backends := make([]engine.Evaluator, max(cfg.Shards, 0), max(cfg.Shards, 0)+len(peers))
	for i := range backends {
		backends[i] = engine.New(eo)
	}
	return engine.NewBalancer(bo, append(backends, peers...)...), nil
}
