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
// Jobs are fanned out across an engine.Evaluator backend — one local
// engine by default; a health-aware engine.Balancer over several local
// shards and (Config.Peers) other art9-serve instances reached through
// internal/remote clients, which is how one instance serves a
// multi-machine fleet; or an elastic engine.Autoscaler. Each request's
// jobs are cancelled with the request context, so a disconnected client
// stops paying for evaluation it can no longer receive.
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
	"repro/internal/rescache"
	"repro/internal/xlate"
)

// maxBody bounds request bodies; manifests are small JSON documents and
// inline sources are assembly text, so 4 MiB is generous. Oversize
// bodies are rejected with 413 via http.MaxBytesReader, not truncated.
const maxBody = 4 << 20

// maxSuiteJobs bounds one /v1/suite request. Every job costs a buffered
// channel slot and two goroutines up front (Stream fan-out + Submit
// handoff), so an uncapped manifest would let a single request allocate
// proportionally to its own size before any evaluation runs.
const maxSuiteJobs = 1024

// Caps for one /v1/cache request, mirrored by internal/remote's cache
// client (redefined there to keep serve → remote a one-way dependency):
// at most maxCacheKeys keys or entries per request, values no larger
// than maxCacheValue bytes so one row always fits a client's NDJSON
// line buffer.
const (
	maxCacheKeys  = 256
	maxCacheValue = 1 << 20
)

// Config sizes the server's evaluation back end.
type Config struct {
	// Shards is the number of local engines. 0 selects one — unless
	// Peers is non-empty, where 0 means proxy-only (no local pool).
	Shards int
	// Workers is the per-shard pool size; 0 selects GOMAXPROCS.
	Workers int
	// JobTimeout bounds each local evaluation job; 0 means no deadline.
	JobTimeout time.Duration
	// Peers lists base URLs of downstream art9-serve instances to fan
	// jobs out to alongside the local shards (serve→serve proxying).
	// Do not point a fleet at itself — a cycle proxies forever.
	Peers []string
	// More than one local shard, or any peer, puts a health-aware
	// engine.Balancer in front: least-loaded dispatch, a periodic
	// health-probe loop, and job-level failover re-running jobs a dying
	// backend dropped. HealthInterval is its probe period and MaxRetries
	// its per-job failover budget (engine defaults at zero; -1 turns
	// either off). Chunk makes it dispatch in chunks of up to this many
	// jobs (acknowledged /v1/suite streams to downstream peers), sized
	// down by live capacity; 0 or 1 places each job on its own. All
	// three are rejected on a lone local engine and an autoscaled pool.
	HealthInterval time.Duration
	MaxRetries     int
	Chunk          int
	// AutoscaleMin/AutoscaleMax select the elastic engine.Autoscaler
	// front instead of a fixed topology: local shards float between the
	// bounds, growing under queued load and draining every retired
	// member before it closes. Mutually exclusive with Shards and
	// Peers.
	AutoscaleMin int
	AutoscaleMax int
	// StandbyPeers lists downstream art9-serve base URLs the autoscaler
	// dials only once the local ceiling is exhausted, and retires first
	// when load drops.
	StandbyPeers []string
	// ScaleUpThreshold/ScaleDownThreshold, ScaleCooldown and
	// ScaleInterval tune the autoscaler's hysteresis (engine defaults
	// at zero); all ignored without AutoscaleMin/AutoscaleMax.
	ScaleUpThreshold   float64
	ScaleDownThreshold float64
	ScaleCooldown      time.Duration
	ScaleInterval      time.Duration
	// Cache enables the fleet-wide result cache: the dispatch path
	// consults a content-addressed store before placing a job, and the
	// /v1/cache/{lookup,fill} endpoints expose this instance's local
	// store to sibling serve instances. CacheMaxBytes bounds the local
	// store (0 selects the rescache default); CachePeers lists sibling
	// base URLs whose /v1/cache tier is consulted on a local miss and
	// filled on a local compute. CacheEpoch is the fleet-wide
	// invalidation generation: every /v1/cache exchange carries it and
	// a disagreement is a standing miss (lookup) or a rejected entry
	// (fill), so restarting with a bumped epoch abandons every
	// previously cached row fleet-wide. All three require Cache.
	Cache         bool
	CacheMaxBytes int64
	CachePeers    []string
	CacheEpoch    uint64
}

// Server owns an Evaluator backend and serves the /v1 API. Create with
// New, mount via Handler, release with Close.
type Server struct {
	backend engine.Evaluator
	peers   int
	// cache is the result-cache tier the dispatch path consults; its
	// Local() store is what /v1/cache/{lookup,fill} serve to siblings.
	// Nil when Config.Cache is off (the endpoints then 404, which cache
	// clients treat as a standing miss).
	cache *rescache.Tiered
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

// New starts the evaluation back end: one local engine, a Balancer over
// local shards and remote clients for cfg.Peers, or an Autoscaler. The
// backend (and the process-wide program/analysis caches the bench jobs
// share) lives for the server's lifetime, so every request after the
// first reuses prior work. Fails on an invalid peer URL or an
// incoherent option combination.
func New(cfg Config) (*Server, error) {
	// remote.NewBackendWith owns the defaulting (one local shard unless
	// peers make a proxy-only topology meaningful) and the choice of
	// front.
	bc := remote.BackendConfig{
		Shards: cfg.Shards,
		Engine: engine.Options{
			Workers:    cfg.Workers,
			JobTimeout: cfg.JobTimeout,
		},
		Peers:              cfg.Peers,
		HealthInterval:     cfg.HealthInterval,
		MaxRetries:         cfg.MaxRetries,
		Chunk:              cfg.Chunk,
		AutoscaleMin:       cfg.AutoscaleMin,
		AutoscaleMax:       cfg.AutoscaleMax,
		StandbyPeers:       cfg.StandbyPeers,
		ScaleUpThreshold:   cfg.ScaleUpThreshold,
		ScaleDownThreshold: cfg.ScaleDownThreshold,
		ScaleCooldown:      cfg.ScaleCooldown,
		ScaleInterval:      cfg.ScaleInterval,
		Cache:              cfg.Cache,
		CacheMaxBytes:      cfg.CacheMaxBytes,
		CachePeers:         cfg.CachePeers,
		CacheEpoch:         cfg.CacheEpoch,
	}
	// Validate before building the tier so an incoherent cache config
	// fails with the shared rule set's diagnostic, not a partial build.
	if _, err := remote.ValidateConfig(bc); err != nil {
		return nil, err
	}
	var tier *rescache.Tiered
	if cfg.Cache {
		var err error
		tier, err = remote.NewResultCacheWith(remote.ResultCacheConfig{
			MaxBytes: cfg.CacheMaxBytes,
			Peers:    cfg.CachePeers,
			Epoch:    cfg.CacheEpoch,
		})
		if err != nil {
			return nil, err
		}
		// The server and its dispatch path share one tier: what the
		// backend computes, /v1/cache/lookup can answer for siblings.
		bc.CacheStore = tier
	}
	backend, err := remote.NewBackendWith(bc)
	if err != nil {
		return nil, err
	}
	s := NewWithBackend(backend)
	s.peers = len(cfg.Peers)
	s.jobTimeout = cfg.JobTimeout
	s.cache = tier
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

// shardCount reports how many shards the backend spans (1 for a
// non-composite backend).
func (s *Server) shardCount() int {
	if c, ok := s.backend.(engine.Composite); ok {
		return c.Size()
	}
	return 1
}

// shardStats reports per-shard counters (one entry for a non-composite
// backend).
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
	if s.cache != nil {
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
// when the backend is a health-aware Balancer or an elastic
// Autoscaler: one scorecard per backend with dispatch/failover/probe
// counters (autoscaler members additionally flag retired/standby).
// Autoscale is present exactly when the backend is an Autoscaler: the
// pool's point-in-time scale state (bounds, active members, busy/queue
// load, thresholds, lifetime up/down counts). Capacity is the
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
	// Failover reports whether a health-aware Balancer fronts the
	// backends — every topology with more than one local shard or any
	// peer; its per-backend scorecards live in /v1/stats.
	Failover bool `json:"failover,omitempty"`
	// Autoscale reports whether an elastic Autoscaler fronts the
	// backends; its scale state and scorecards live in /v1/stats.
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
		Shards:  s.shardCount(),
		Workers: engine.LocalStats(s.backend).Workers,
		Peers:   s.peers,
		Cache:   s.cache != nil,
	}
	status := http.StatusOK
	// A Balancer front answers with its tracked aggregate verdict — no
	// network, so liveness still never blocks on a peer — and a front
	// whose backends are all down reports 503: an upper failover tier
	// probing this endpoint then routes around the whole front, which
	// is how balancers nest across serve→serve tiers.
	switch front := s.backend.(type) {
	case *engine.Balancer:
		reply.Failover = true
		if err := front.Probe(r.Context()); err != nil {
			reply.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
	case *engine.Autoscaler:
		reply.Autoscale = true
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
	if c, ok := s.backend.(engine.Composite); ok {
		total.Streams = c.Streams()
	}
	reply := StatsReply{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Load(),
		Engine:        bench.EngineReportFrom(total, s.shardCount()),
		ShardStats:    per,
		Cache:         bench.SharedCacheReport(),
		Capacity:      engine.LocalCapacity(s.backend),
	}
	if s.cache != nil {
		reply.Cache.Results = bench.ResultCacheReportFrom(s.cache.Stats())
		reply.Cache.Results.EpochRejects += s.cacheEpochRejects.Load()
	}
	switch front := s.backend.(type) {
	case *engine.Balancer:
		reply.Balancer = front.Health()
	case *engine.Autoscaler:
		reply.Balancer = front.Health()
		state := front.ScaleState()
		reply.Autoscale = &state
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
	techs, err := bench.Technologies(req.Technologies)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wl, err := req.Resolve("") // dir "" forbids file jobs over HTTP
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs := bench.SuiteJobs([]bench.Workload{wl}, xlate.Options{})
	// Forward the request's technologies and timeout on the job spec so
	// a peer backend applies the same estimates and bounds the local
	// path does.
	spec := jobs[0].Spec.(*bench.JobSpec)
	spec.Technologies = req.Technologies
	spec.Job.TimeoutMS = req.TimeoutMS
	if req.TimeoutMS > 0 {
		jobs[0].Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
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
		if err := enc.Encode(suiteAck{Ack: "start", Jobs: len(jobs)}); err != nil {
			clientGone = true
		}
		flush()
	}
	rows := 0
	var line []byte
	for res := range s.backend.Stream(r.Context(), jobs) {
		if clientGone {
			// The client is gone; keep draining so the stream's
			// forwarders finish against the cancelled context, but
			// skip rendering rows nobody will receive.
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
		enc.Encode(suiteAck{Ack: "end", Rows: rows})
		flush()
	}
}

// suiteAck is one acknowledgement line of the ?ack=1 /v1/suite stream:
// "start" carries the accepted job count, "end" the number of result
// rows written. Mirrored by internal/remote's ackRow (redefined there
// to keep serve → remote a one-way dependency).
type suiteAck struct {
	Ack  string `json:"ack"`
	Jobs int    `json:"jobs,omitempty"`
	Rows int    `json:"rows,omitempty"`
}

// cacheLookupRequest is the POST /v1/cache/lookup body. Mirrored by
// internal/remote's cache client (redefined there to keep serve →
// remote a one-way dependency), like suiteAck. Epoch is the caller's
// cache generation; a disagreement answers every key as a miss.
type cacheLookupRequest struct {
	Keys  []string `json:"keys"`
	Epoch uint64   `json:"epoch,omitempty"`
}

// cacheRow is one NDJSON reply row of /v1/cache/lookup, stamped with
// this server's epoch so the client can refuse cross-generation rows.
type cacheRow struct {
	Key   string          `json:"key"`
	Found bool            `json:"found"`
	Value json.RawMessage `json:"value,omitempty"`
	Epoch uint64          `json:"epoch,omitempty"`
}

// cacheFillEntry is one entry of the POST /v1/cache/fill body.
type cacheFillEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// cacheFillRequest is the POST /v1/cache/fill body.
type cacheFillRequest struct {
	Entries []cacheFillEntry `json:"entries"`
	Epoch   uint64           `json:"epoch,omitempty"`
}

// cacheFillReply acknowledges a fill: entries stored, entries refused
// over an epoch disagreement, and this server's epoch.
type cacheFillReply struct {
	Stored   int    `json:"stored"`
	Rejected int    `json:"rejected,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
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
	var req cacheLookupRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(req.Keys) > maxCacheKeys {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("cache lookup: %d keys exceeds the per-request limit of %d", len(req.Keys), maxCacheKeys))
		return
	}
	epoch := s.cache.Epoch()
	if req.Epoch != epoch {
		s.cacheEpochRejects.Add(uint64(len(req.Keys)))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for _, k := range req.Keys {
			if err := enc.Encode(cacheRow{Key: k, Epoch: epoch}); err != nil {
				return
			}
		}
		return
	}
	local := s.cache.Local()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, k := range req.Keys {
		row := cacheRow{Key: k, Epoch: epoch}
		if v, ok := local.Get(r.Context(), k); ok {
			row.Found, row.Value = true, v
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
	var req cacheFillRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(req.Entries) > maxCacheKeys {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("cache fill: %d entries exceeds the per-request limit of %d", len(req.Entries), maxCacheKeys))
		return
	}
	epoch := s.cache.Epoch()
	if req.Epoch != epoch {
		s.cacheEpochRejects.Add(uint64(len(req.Entries)))
		writeJSON(w, http.StatusOK, cacheFillReply{Rejected: len(req.Entries), Epoch: epoch})
		return
	}
	local := s.cache.Local()
	stored := 0
	for _, e := range req.Entries {
		if e.Key == "" || len(e.Value) == 0 || len(e.Value) > maxCacheValue || !json.Valid(e.Value) {
			continue
		}
		local.Put(r.Context(), e.Key, e.Value)
		stored++
	}
	writeJSON(w, http.StatusOK, cacheFillReply{Stored: stored, Epoch: epoch})
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
