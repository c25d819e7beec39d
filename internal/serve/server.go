// Package serve is the streaming evaluation service: the paper's §V
// evaluation matrix exposed over HTTP on top of the engine's Job/Result
// API. A resident server amortizes what the CLI pays per invocation —
// warm memoization caches, running worker pools — across every request,
// which is the first step of the ROADMAP's serve-heavy-traffic goal.
//
// Endpoints (all JSON):
//
//	POST /v1/eval     one program in, one JobReport out
//	POST /v1/suite    manifest in, NDJSON JobReports streamed out in
//	                  completion order, one line per job as it finishes
//	                  (?ack=1 adds start/end acknowledgement rows for
//	                  chunk dispatchers)
//	GET  /v1/healthz  liveness + pool shape
//	GET  /v1/stats    per-shard engine counters + shared cache counters
//	GET  /v1/capacity process-local free workers + queue depth (the
//	                  fast path capacity-aware fronts poll)
//	POST /v1/cache/lookup  result-cache keys in, NDJSON hit/miss rows
//	                  out — answered from this instance's LOCAL store
//	                  (Config.Cache; absent otherwise)
//	POST /v1/cache/fill    sibling-computed result rows in, stored
//	                  count out (Config.Cache; absent otherwise)
//
// Jobs are fanned out across an engine.Evaluator backend, which New
// builds with remote.NewBackendWith from a Config (an alias of
// remote.BackendConfig, the one fleet topology declaration): one local
// engine by default, or a health-aware engine.Balancer over several
// local shards and (Config.Peers) other art9-serve instances reached
// through internal/remote clients, which is how one instance serves a
// multi-machine fleet, or over an elastic pool of local shards. With
// Config.Cache the /v1/cache endpoints serve the result-cache tier that
// backend's front consults, so there is one tier per server. Each
// request's jobs are cancelled with the request context, so a
// disconnected client stops paying for evaluation it can no longer
// receive.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/xlate"
)

// maxBody bounds request bodies; manifests are small JSON documents and
// inline sources are assembly text, so 4 MiB is generous. Oversize
// bodies are rejected with 413 via http.MaxBytesReader, not truncated.
const maxBody = 4 << 20

// maxSuiteJobs bounds one /v1/suite request. Every job costs its engine
// job, its spec and a slot in the Stream's buffered channel up front, so
// an uncapped manifest would let a single request allocate
// proportionally to its own size before any evaluation runs.
const maxSuiteJobs = 1024

// maxCacheKeys caps the keys or entries of one /v1/cache request; the
// wire protocol declares it in internal/remote.
const maxCacheKeys = remote.MaxCacheKeys

// Config sizes the server's evaluation back end. It is the one fleet
// topology declaration, remote.BackendConfig: Shards 0 selects one local
// engine unless Peers makes the front proxy-only, and Cache also mounts
// the /v1/cache/{lookup,fill} endpoints, which serve the same tier the
// dispatch path fills.
type Config = remote.BackendConfig

// Server owns an Evaluator backend and serves the /v1 API. Create with
// New, mount via Handler, release with Close.
type Server struct {
	backend engine.Evaluator
	peers   int
	// results is the result cache on the backend's dispatch path; the
	// Local() store of the tier it wraps is what /v1/cache/{lookup,fill}
	// serve to siblings. Nil when Config.Cache is off (the endpoints then
	// 404, which cache clients treat as a standing miss).
	results *bench.ResultCache
	// jobTimeout is Config.JobTimeout, stamped onto jobs that carry no
	// bound of their own so the deadline rides the wire spec to peer
	// backends — the engine option only covers local shards.
	jobTimeout time.Duration
	started    time.Time
	requests   atomic.Uint64
	// cacheEpochRejects counts wire exchanges this server refused over
	// an epoch disagreement — the server-side half of the invalidation
	// picture (the tier's own Stats carry the client-side half).
	cacheEpochRejects atomic.Uint64
}

// New starts the evaluation back end: one local engine, or a Balancer
// over local shards — a fixed count or an elastic pool — and remote
// clients for cfg.Peers, as remote.NewBackendWith builds it. The backend (and the process-wide
// program/analysis caches the bench jobs share) lives for the server's
// lifetime, so every request after the first reuses prior work. Fails
// on an invalid peer URL or an incoherent option combination.
func New(cfg Config) (*Server, error) {
	backend, err := remote.NewBackendWith(cfg)
	if err != nil {
		return nil, err
	}
	s := NewWithBackend(backend)
	s.peers = len(cfg.Peers)
	s.jobTimeout = cfg.JobTimeout
	// The /v1/cache endpoints answer from the tier the front's dispatch
	// path fills, so what the backend computes, siblings can look up.
	if rc, ok := engine.ResultCacheOf(backend).(*bench.ResultCache); ok {
		s.results = rc
	}
	return s, nil
}

// NewWithBackend wraps a caller-supplied Evaluator — any topology, e.g.
// a Balancer mixing custom backends — and takes ownership of it (the
// server's Close closes it). Fault-injection tests use it to serve
// suites from scripted backends.
func NewWithBackend(backend engine.Evaluator) *Server {
	return &Server{
		backend: backend,
		started: time.Now(),
	}
}

// Backend exposes the evaluation backend (stats drill-down, tests).
func (s *Server) Backend() engine.Evaluator { return s.backend }

// Shards reports how many shards the backend spans (engine.Shards): the
// figure /v1/healthz reports.
func (s *Server) Shards() int { return engine.Shards(s.backend) }

// shardStats reports per-shard counters (one entry for a backend other
// than a Balancer).
func (s *Server) shardStats() []engine.Stats {
	return engine.BackendStats(s.backend)
}

// Close stops the backend. In-flight jobs finish, queued jobs resolve
// with ErrClosed; call after the HTTP listener has drained so no handler
// is still submitting.
func (s *Server) Close() error { return s.backend.Close() }

// Handler returns the /v1 route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/capacity", s.handleCapacity)
	mux.HandleFunc("/v1/eval", s.handleEval)
	mux.HandleFunc("/v1/suite", s.handleSuite)
	if s.results != nil {
		// Registered only when the cache is on: a cache-less instance
		// answers 404, which remote cache clients count as a standing
		// miss — mixed-version and mixed-config fleets stay healthy.
		mux.HandleFunc("/v1/cache/lookup", s.handleCacheLookup)
		mux.HandleFunc("/v1/cache/fill", s.handleCacheFill)
	}
	return mux
}

// EvalRequest is the POST /v1/eval body: one manifest job plus the
// technologies to estimate it against. File jobs are rejected — a
// network request must not read server-side paths.
type EvalRequest struct {
	bench.ManifestJob
	Technologies []string `json:"technologies,omitempty"`
}

// StatsReply is the GET /v1/stats body. Balancer is present exactly
// when the backend is a health-aware Balancer: one scorecard per
// backend with dispatch/failover/probe counters (an elastic pool's
// members additionally flag retired/standby). Autoscale is present
// exactly when the Balancer is an elastic pool: its point-in-time scale
// state (bounds, active members, busy/queue load, thresholds, lifetime
// up/down counts). Capacity is the
// process-local load snapshot (the same numbers /v1/capacity serves as
// a fast path), so capacity-aware fronts can size chunks off either
// endpoint.
type StatsReply struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Requests      uint64                 `json:"requests"`
	Engine        bench.EngineReport     `json:"engine"`
	ShardStats    []engine.Stats         `json:"shard_stats"`
	Cache         bench.CacheReport      `json:"cache"`
	Capacity      engine.Capacity        `json:"capacity"`
	Balancer      []engine.BackendHealth `json:"balancer,omitempty"`
	Autoscale     *engine.ScaleState     `json:"autoscale,omitempty"`
}

// healthzReply is the GET /v1/healthz body. Workers counts local pool
// workers only — liveness must never block on a peer, so fleet capacity
// is reported by /v1/stats (which does scrape the peers) instead.
type healthzReply struct {
	Status  string `json:"status"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	Peers   int    `json:"peers,omitempty"`
	// Failover reports whether a fixed health-aware Balancer fronts the
	// backends — every topology with more than one local shard or any
	// peer and no autoscaling; its per-backend scorecards live in
	// /v1/stats.
	Failover bool `json:"failover,omitempty"`
	// Autoscale reports whether the Balancer is an elastic pool; its
	// scale state and scorecards live in /v1/stats.
	Autoscale bool `json:"autoscale,omitempty"`
	// Cache reports whether the result cache (and its /v1/cache
	// endpoints) is enabled; its counters live in /v1/stats.
	Cache bool `json:"cache,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	reply := healthzReply{
		Status:  "ok",
		Shards:  s.Shards(),
		Workers: engine.LocalStats(s.backend).Workers,
		Peers:   s.peers,
		Cache:   s.results != nil,
	}
	status := http.StatusOK
	// A Balancer front answers with its tracked aggregate verdict — no
	// network, so liveness still never blocks on a peer — and a front
	// whose backends are all down reports 503: an upper failover tier
	// probing this endpoint then routes around the whole front, which
	// is how balancers nest across serve→serve tiers.
	if front, ok := s.backend.(*engine.Balancer); ok {
		reply.Autoscale = front.Autoscaler() != nil
		reply.Failover = !reply.Autoscale
		if err := front.Probe(r.Context()); err != nil {
			reply.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, reply)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	// One scrape round serves both views: remote shards answer Stats()
	// with a live peer scrape, so summing the per-shard snapshots —
	// instead of asking the backend again — halves the network cost. A
	// front hands its members chunks, not streams, so the stream count
	// is the front's own.
	per := s.shardStats()
	var total engine.Stats
	for _, st := range per {
		total = total.Add(st)
	}
	front, balanced := s.backend.(*engine.Balancer)
	if balanced {
		total.Streams = front.Streams()
	}
	reply := StatsReply{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Load(),
		Engine:        bench.EngineReportFrom(total, s.Shards()),
		ShardStats:    per,
		Cache:         bench.SharedCacheReport(),
		Capacity:      engine.LocalCapacity(s.backend),
	}
	if s.results != nil {
		// The adapter's Stats fold in the corrupt rows only it sees.
		reply.Cache.Results = bench.ResultCacheReportFrom(s.results.Stats())
		reply.Cache.Results.EpochRejects += s.cacheEpochRejects.Load()
	}
	if balanced {
		reply.Balancer = front.Health()
		if a := front.Autoscaler(); a != nil {
			state := a.ScaleState()
			reply.Autoscale = &state
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleCapacity is the lightweight load fast path: the process-local
// free-worker and queue-depth snapshot, no peer scrapes and no JSON
// bigger than one line — cheap enough for a capacity-aware front to
// poll every probe round without taxing the fleet.
func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, engine.LocalCapacity(s.backend))
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req EvalRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	// The request is a one-job manifest, resolved as /v1/suite resolves
	// one: the technologies and timeout ride the job spec, so a peer
	// backend applies the same estimates and bounds the local path does.
	m := bench.Manifest{Technologies: req.Technologies, Jobs: []bench.ManifestJob{req.ManifestJob}}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs, err := m.EngineJobs("", xlate.Options{}) // dir "" forbids file jobs
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bench.ApplyJobTimeout(jobs, s.jobTimeout)
	results, _ := s.backend.Run(r.Context(), jobs)
	res := results[0]
	// The typed evaluation failures get distinct statuses: a
	// draining/closed or unavailable backend is 503 (retry elsewhere —
	// this is what lets an upper failover tier re-run the job on a
	// different front), a per-job timeout is 504. Everything else is a
	// job-level failure reported in the 200 row, matching the NDJSON
	// suite contract.
	switch {
	case errors.Is(res.Err, engine.ErrClosed), errors.Is(res.Err, engine.ErrUnavailable):
		writeTypedError(w, http.StatusServiceUnavailable, res.Err)
		return
	case errors.Is(res.Err, engine.ErrTimeout) || errors.Is(res.Err, context.DeadlineExceeded):
		writeTypedError(w, http.StatusGatewayTimeout, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, bench.JobReportOf(res, techs))
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	raw, err := readBody(w, r)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	m, err := bench.ParseManifest(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(m.Jobs) > maxSuiteJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("manifest: %d jobs exceeds the per-request limit of %d", len(m.Jobs), maxSuiteJobs))
		return
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs, err := m.EngineJobs("", xlate.Options{}) // dir "" forbids file jobs
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bench.ApplyJobTimeout(jobs, s.jobTimeout)

	// Everything below is NDJSON: one JobReport line the moment each
	// job completes, flushed so a slow suite trickles out instead of
	// buffering. The jobs share the request context — when the client
	// disconnects, outstanding jobs resolve canceled and the engines
	// move on to other requests' work.
	//
	// ?ack=1 selects the acknowledged stream variant chunk dispatchers
	// consume: a start row once the manifest is accepted and an end row
	// after the last report, so a client can tell a complete stream
	// from one severed mid-chunk — result rows are unchanged, and the
	// plain stream stays byte-compatible for existing consumers.
	acked := r.URL.Query().Get("ack") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	clientGone := false
	if acked {
		if err := enc.Encode(remote.SuiteAck{Ack: "start", Jobs: len(jobs)}); err != nil {
			clientGone = true
		}
		flush()
	}
	rows := 0
	var line []byte
	for res := range s.backend.Stream(r.Context(), jobs) {
		if clientGone {
			// The client is gone; keep draining so the stream's
			// jobs resolve against the cancelled context, but skip
			// rendering rows nobody will receive.
			continue
		}
		// A result-cache hit is written as its stored row with the
		// job's name spliced in; other rows are encoded as before.
		var err error
		if line, err = bench.AppendReportLine(line[:0], res, techs); err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			clientGone = true
			continue
		}
		rows++
		flush()
	}
	if acked && !clientGone {
		enc.Encode(remote.SuiteAck{Ack: "end", Rows: rows})
		flush()
	}
}

// handleCacheLookup answers sibling lookups from the LOCAL store only —
// never through the tier — so two instances pointed at each other
// cannot loop one miss forever. Rows stream as NDJSON in key order. A
// caller on a different epoch gets a full set of miss rows stamped with
// this server's epoch — a standing miss, never an error, so
// mixed-generation fleets degrade to computing.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req remote.CacheLookupRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(req.Keys) > maxCacheKeys {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("cache lookup: %d keys exceeds the per-request limit of %d", len(req.Keys), maxCacheKeys))
		return
	}
	tier := s.results.Backing()
	epoch := tier.Epoch()
	stale := req.Epoch != epoch
	if stale {
		s.cacheEpochRejects.Add(uint64(len(req.Keys)))
	}
	local := tier.Local()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, k := range req.Keys {
		row := remote.CacheRow{Key: k, Epoch: epoch}
		if !stale {
			row.Value, row.Found = local.Get(r.Context(), k)
		}
		if err := enc.Encode(row); err != nil {
			return
		}
	}
}

// handleCacheFill stores sibling-computed rows into the LOCAL store, so
// this instance answers the fleet's next lookup without the fill ever
// fanning back out. Unusable entries — empty keys, oversize or invalid
// values — are skipped, not errors: a fill is best-effort by contract.
// A fill from another epoch is rejected whole (acknowledged, counted,
// stored nowhere): another generation's rows must never enter this
// store.
func (s *Server) handleCacheFill(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req remote.CacheFillRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(req.Entries) > maxCacheKeys {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("cache fill: %d entries exceeds the per-request limit of %d", len(req.Entries), maxCacheKeys))
		return
	}
	tier := s.results.Backing()
	epoch := tier.Epoch()
	if req.Epoch != epoch {
		s.cacheEpochRejects.Add(uint64(len(req.Entries)))
		writeJSON(w, http.StatusOK, remote.CacheFillReply{Rejected: len(req.Entries), Epoch: epoch})
		return
	}
	local := tier.Local()
	stored := 0
	for _, e := range req.Entries {
		if e.Key == "" || len(e.Value) == 0 || len(e.Value) > remote.MaxCacheValue || !json.Valid(e.Value) {
			continue
		}
		local.Put(r.Context(), e.Key, e.Value)
		stored++
	}
	writeJSON(w, http.StatusOK, remote.CacheFillReply{Stored: stored, Epoch: epoch})
}

// readBody reads a request body under the maxBody cap; oversize bodies
// error (mapped to 413 by bodyErrStatus) rather than truncating.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return raw, nil
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	raw, err := readBody(w, r)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return errors.New("empty request body")
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	return nil
}

// bodyErrStatus maps a body-read failure to 413 when the cause was the
// size cap, 400 otherwise.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeTypedError renders an evaluation failure with its wire kind, so
// a remote client on the next tier up re-types it exactly — "closed"
// and "unavailable" both travel as 503, and without the kind the
// client could not tell a draining peer from an unreachable one.
func writeTypedError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{
		"error":      err.Error(),
		"error_kind": bench.ErrorKindOf(err),
	})
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
}
