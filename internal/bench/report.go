package bench

import (
	"context"
	"errors"

	"repro/internal/engine"
	"repro/internal/gate"
)

// This file defines the JSON report rows shared by cmd/art9-batch (the
// archived BENCH_*.json documents) and internal/serve (each NDJSON line
// of POST /v1/suite is one JobReport), so a job renders identically
// whether it ran from a file manifest or an HTTP request.

// Report is the batch output, one BENCH_*.json per run.
type Report struct {
	Schema  string      `json:"schema"`
	Created string      `json:"created"`
	Workers int         `json:"workers"`
	WallMS  float64     `json:"wall_ms"`
	Jobs    []JobReport `json:"jobs"`
	// Peers counts remote art9-serve backends the batch fanned out to
	// (0 for a purely local run, the historical shape).
	Peers  int          `json:"peers,omitempty"`
	Cache  CacheReport  `json:"cache"`
	Engine EngineReport `json:"engine"`
	// Balancer is present exactly when the batch ran behind a
	// health-aware Balancer, fixed or elastic: per-backend dispatch,
	// failover and health-probe counters, so
	// BENCH artifacts record fleet behaviour (which backends carried
	// the work, which dropped jobs that were re-run elsewhere, which
	// were spawned or retired by scaling).
	Balancer *BalancerReport `json:"balancer,omitempty"`
	Failures int             `json:"failures"`
}

// BalancerReport snapshots an engine.Balancer's dispatch behaviour —
// its failover counters and, for an elastic pool, its scale
// trajectory: the budget it ran with, how many re-dispatches it
// performed, and one scorecard per backend.
type BalancerReport struct {
	MaxRetries int `json:"max_retries"`
	// Retries counts re-dispatches (attempts after each job's first);
	// Failovers counts backend-level failures that caused them, summed
	// over the backends.
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	// Chunk is the Balancer's chunk cap (1: per-job placement); Chunks
	// counts dispatch units issued and ChunkResumes the chunks severed
	// mid-stream whose unresolved jobs were re-chunked onto survivors —
	// the wire-overhead trajectory the BENCH artifacts track.
	Chunk        int    `json:"chunk,omitempty"`
	Chunks       uint64 `json:"chunks,omitempty"`
	ChunkResumes uint64 `json:"chunk_resumes,omitempty"`
	// CacheHits counts jobs the front resolved from the fleet-wide
	// result cache without placing them on any backend.
	CacheHits uint64 `json:"cache_hits,omitempty"`
	// ScaleUps/ScaleDowns count an elastic pool's transitions and
	// ScaleEvents is its event log (capped by the engine) — the
	// elasticity trajectory the BENCH artifacts track. Absent behind a
	// fixed-size Balancer.
	ScaleUps    uint64                 `json:"scale_ups,omitempty"`
	ScaleDowns  uint64                 `json:"scale_downs,omitempty"`
	ScaleEvents []engine.ScaleEvent    `json:"scale_events,omitempty"`
	Backends    []engine.BackendHealth `json:"backends"`
}

// BalancerReportFor renders the fleet scorecard of a Balancer-fronted
// backend, or nil when ev is any other Evaluator — callers attach it to
// a Report exactly when it exists.
func BalancerReportFor(ev engine.Evaluator) *BalancerReport {
	front, ok := ev.(*engine.Balancer)
	if !ok {
		return nil
	}
	rep := &BalancerReport{
		MaxRetries:   front.MaxRetries(),
		Retries:      front.Retries(),
		Chunk:        front.Chunk(),
		Chunks:       front.Chunks(),
		ChunkResumes: front.ChunkResumes(),
		CacheHits:    front.CacheHits(),
		Backends:     front.Health(),
	}
	if a := front.Autoscaler(); a != nil {
		// Events is already bounded engine-side, so the report carries
		// the full log it kept.
		rep.ScaleUps, rep.ScaleDowns, rep.ScaleEvents = a.ScaleUps(), a.ScaleDowns(), a.Events()
	}
	for _, h := range rep.Backends {
		rep.Failovers += h.Failovers
	}
	return rep
}

// JobReport carries one job's result. Metrics is present exactly when
// OK is true, with every field always emitted — a checksum of 0 stays
// distinguishable from "job failed" for consumers diffing reports.
type JobReport struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// ErrorKind classifies a failure ("closed", "timeout",
	// "unavailable"; empty for anything else) so the engine's typed
	// errors survive the NDJSON wire — the remote client maps it back
	// to ErrClosed/ErrTimeout/ErrUnavailable, which is what lets
	// job-level failover compose across serve→serve tiers.
	ErrorKind string  `json:"error_kind,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Worker    int     `json:"worker"`

	Metrics         *MetricsReport `json:"metrics,omitempty"`
	Implementations []ImplReport   `json:"implementations,omitempty"`
}

// MetricsReport mirrors Outcome for one successful job.
type MetricsReport struct {
	Checksum   int    `json:"checksum"`
	RVInsts    int    `json:"rv_insts"`
	RVBits     int    `json:"rv_bits"`
	ARTInsts   int    `json:"art_insts"`
	ARTTrits   int    `json:"art_trits"`
	ART9Cycles uint64 `json:"art9_cycles"`
	VexCycles  uint64 `json:"vex_cycles"`
	PicoCycles uint64 `json:"pico_cycles"`
	Removed    int    `json:"redundancy_removed"`
}

// ImplReport is one (job, technology) implementation estimate, at the
// operating point of the paper's Table IV (native) / Table V (FPGA).
type ImplReport struct {
	Tech      string  `json:"tech"`
	Gates     int     `json:"gates,omitempty"`
	ALMs      int     `json:"alms,omitempty"`
	Registers int     `json:"registers,omitempty"`
	RAMBits   int     `json:"ram_bits,omitempty"`
	FreqMHz   float64 `json:"freq_mhz"`
	PowerW    float64 `json:"power_w"`
	DMIPS     float64 `json:"dmips"`
	DMIPSPerW float64 `json:"dmips_per_w"`
}

// CacheReport snapshots a pair of memoization caches, plus — when the
// run had a fleet-wide result cache on its dispatch path — that tier's
// counters.
type CacheReport struct {
	ProgramHits    uint64 `json:"program_hits"`
	ProgramMisses  uint64 `json:"program_misses"`
	AnalysisHits   uint64 `json:"analysis_hits"`
	AnalysisMisses uint64 `json:"analysis_misses"`
	// ProgramEvictions/AnalysisEvictions count entries the bounded
	// memoization caches dropped under byte or entry pressure.
	ProgramEvictions  uint64 `json:"program_evictions,omitempty"`
	AnalysisEvictions uint64 `json:"analysis_evictions,omitempty"`
	// Results is the fleet-wide result-cache section (internal/rescache
	// via bench.ResultCache), present exactly when the run was cached.
	Results *ResultCacheReport `json:"results,omitempty"`
}

// EngineReport snapshots the engine's lifetime job counters, plus the
// shard count for sharded front ends (1 for a single engine).
type EngineReport struct {
	Workers   int    `json:"workers"`
	Shards    int    `json:"shards"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	Streams   uint64 `json:"streams"`
}

// JobReportOf renders one engine result as a report row, evaluating a
// successful outcome against every requested technology.
//
// A result whose Value is already a *JobReport — what the
// internal/remote backend yields, having received the row from its peer
// — passes through unchanged (the peer already evaluated its own
// technologies), so local and remote shards render identically in one
// merged report. A result-cache hit served as its stored bytes (a
// *CachedRow) is decoded and named r.ID, giving the row the cache's
// decode-and-replay path gave. AppendReportLine renders the same row
// as its wire line without that decode.
func JobReportOf(r engine.Result, techs []*gate.Technology) JobReport {
	if row, ok := r.Value.(*CachedRow); ok {
		jr, err := row.Report()
		if err != nil {
			return JobReport{Name: r.ID, Worker: r.Worker, Error: err.Error()}
		}
		jr.Name = r.ID
		return jr
	}
	if remote, ok := r.Value.(*JobReport); ok {
		jr := *remote
		if jr.Name == "" {
			jr.Name = r.ID
		}
		return jr
	}
	jr := JobReport{
		Name:      r.ID,
		OK:        r.Err == nil,
		ElapsedMS: float64(r.Elapsed.Microseconds()) / 1e3,
		Worker:    r.Worker,
	}
	if r.Err != nil {
		jr.Error = r.Err.Error()
		jr.ErrorKind = ErrorKindOf(r.Err)
		return jr
	}
	o := r.Value.(*Outcome)
	jr.Metrics = MetricsReportOf(o)
	jr.Implementations = ImplReports(o, techs)
	return jr
}

// MetricsReportOf renders one outcome's metrics row — the one
// Outcome→MetricsReport mapping, shared with tests that compare
// streamed rows against a serial oracle.
func MetricsReportOf(o *Outcome) *MetricsReport {
	return &MetricsReport{
		Checksum:   o.Checksum,
		RVInsts:    o.RVInsts,
		RVBits:     o.RVBits,
		ARTInsts:   o.ARTInsts,
		ARTTrits:   o.ARTTrits,
		ART9Cycles: o.ART9Cycles,
		VexCycles:  o.VexCycles,
		PicoCycles: o.PicoCycles,
		Removed:    o.Removed,
	}
}

// ErrorKindOf classifies a job failure for the wire ("closed",
// "timeout", "unavailable"; empty for job-level failures) — the one
// classifier behind JobReport.ErrorKind and the serve layer's typed
// error bodies, so every hop of a serve→serve tier re-types the same
// way.
func ErrorKindOf(err error) string {
	switch {
	case errors.Is(err, engine.ErrClosed):
		return "closed"
	case errors.Is(err, engine.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, engine.ErrUnavailable):
		return "unavailable"
	default:
		return ""
	}
}

// ImplReports evaluates one outcome against every requested technology
// at the same operating point the paper's tables use (ImplFor), so
// report rows are comparable to Tables IV/V. The analysis itself comes
// from the engine's shared cache, so only the first job per technology
// pays for it.
func ImplReports(o *Outcome, techs []*gate.Technology) []ImplReport {
	var irs []ImplReport
	for _, tech := range techs {
		impl := ImplFor(o, tech)
		irs = append(irs, ImplReport{
			Tech:      impl.Tech,
			Gates:     impl.Gates,
			ALMs:      impl.ALMs,
			Registers: impl.Registers,
			RAMBits:   impl.RAMBits,
			FreqMHz:   impl.FreqMHz,
			PowerW:    impl.PowerW,
			DMIPS:     impl.DMIPS,
			DMIPSPerW: impl.DMIPSPerW,
		})
	}
	return irs
}

// SharedCacheReport snapshots the process-wide memoization caches — the
// ones every bench job feeds regardless of which backend ran it.
func SharedCacheReport() CacheReport {
	return cacheReport(engine.SharedPrograms.Stats(), engine.SharedAnalyses.Stats())
}

func cacheReport(ps, as engine.CacheStats) CacheReport {
	return CacheReport{
		ProgramHits: ps.Hits, ProgramMisses: ps.Misses,
		AnalysisHits: as.Hits, AnalysisMisses: as.Misses,
		ProgramEvictions: ps.Evictions, AnalysisEvictions: as.Evictions,
	}
}

// RunReportFor renders only the counters attributable to this process's
// use of the backend — remote shards report the work submitted through
// them (engine.LocalStats), not their peer's lifetime totals — which is
// what a per-run document like BENCH_*.json should carry. Workers
// consequently counts local pools only; remote capacity is the report's
// peers field. Shards and Workers leave out members an elastic pool has
// retired.
func RunReportFor(ev engine.Evaluator) EngineReport {
	return EngineReportFrom(engine.LocalStats(ev), engine.Shards(ev))
}

// EngineReportFrom renders an already-taken stats snapshot over shards
// backends — for callers (the serve stats endpoint) that must not
// trigger a second scrape of remote backends.
func EngineReportFrom(st engine.Stats, shards int) EngineReport {
	return EngineReport{
		Workers:   st.Workers,
		Shards:    shards,
		Submitted: st.Submitted,
		Completed: st.Completed,
		Failed:    st.Failed,
		Canceled:  st.Canceled,
		Rejected:  st.Rejected,
		Streams:   st.Streams,
	}
}
