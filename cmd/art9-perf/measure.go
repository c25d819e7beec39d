package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
)

// metricDef declares one reported metric. The two registries below are
// what BENCHMARK.json declares; a test keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the stack sees, measured untraced.
// Bounds are regression tolerances, a share of the parent's median, each
// at least three times the widest run-to-run spread in README.md. Three
// more are printed but not declared: latency_p95_ms, whose spread would
// need a bound past 0.25; fail_ratio, which is 0 on every healthy run and
// travels in the result line as attempted and failed; and host_factor,
// the host speed the timings were rescaled by.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"alloc_kb_per_job", "KiB", "lower", 0.03},
	{"rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one or more per module. A layer
// a workload bypasses reads 0: per-job times and rates for layers every
// workload crosses, shares of request time for the ones some bypass.
var perLayer = []metricDef{
	{"sim.setup_us", "us", "lower", 0},
	{"sim.functional_us", "us", "lower", 0},
	{"sim.pipeline_us", "us", "lower", 0},
	{"sim.functional_minst_per_s", "Minst/s", "higher", 0},
	{"sim.pipeline_mcycles_per_s", "Mcycles/s", "higher", 0},
	{"rv32.assemble_us", "us", "lower", 0},
	{"rv32.setup_us", "us", "lower", 0},
	{"rv32.run_us", "us", "lower", 0},
	{"rv32.minst_per_s", "Minst/s", "higher", 0},
	{"xlate.translate_us", "us", "lower", 0},
	{"asm.assemble_us", "us", "lower", 0},
	{"gate.analyze_cold_us", "us", "lower", 0},
	{"engine.program_cache_hit_ratio", "ratio", "higher", 0},
	{"engine.analysis_cache_hit_ratio", "ratio", "higher", 0},
	{"engine.queue_wait_us", "us", "lower", 0},
	{"engine.worker_busy_frac", "ratio", "higher", 0},
	{"engine.balancer_chunks_per_job", "count", "lower", 0},
	{"bench.manifest_decode_us", "us", "lower", 0},
	{"bench.report_us", "us", "lower", 0},
	{"bench.row_bytes", "B", "lower", 0},
	{"rescache.hit_ratio", "ratio", "higher", 0},
	{"rescache.lookup_share", "ratio", "lower", 0},
	{"rescache.store_share", "ratio", "lower", 0},
	{"serve.handler_share", "ratio", "lower", 0},
	{"serve.first_row_frac", "ratio", "lower", 0},
	{"serve.wire_share", "ratio", "lower", 0},
	{"remote.wire_share", "ratio", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_cycles_per_1k_jobs", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.unattributed_frac", "ratio", "lower", 0},
}

// measurement is one metric's value with its sample count.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// phase is what one stretch of closed-loop load measured.
type phase struct {
	start     time.Time
	reqs      []sample
	attempted int     // jobs sent
	ok        int     // jobs whose row matched the oracle
	errs      []error // request-level failures, for the log
	wall      time.Duration
}

// sample is one request of a phase; its times are since the phase
// started.
type sample struct {
	start, end time.Duration
	ok         int // jobs whose row matched the oracle
}

func (s sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

func (p *phase) failed() int { return p.attempted - p.ok }

func (p *phase) jobsPerS() float64 { return float64(p.ok) / p.wall.Seconds() }

// add accumulates another stretch of the same load into p. The requests'
// times stay relative to their own stretch.
func (p *phase) add(q phase) {
	p.reqs = append(p.reqs, q.reqs...)
	p.attempted += q.attempted
	p.ok += q.ok
	p.errs = append(p.errs, q.errs...)
	p.wall += q.wall
}

// windows cuts the first d of p into n equal windows and returns each
// window's throughput and latency quantiles in reference-host time: the
// throughput divided by the window's host factor f[k], the latencies
// multiplied by it (f nil: as measured). A request's jobs count in every
// window its request overlapped, in proportion to the overlap; its
// latency counts in the window it completed in. A window no request
// completed in has no latencies.
func (p *phase) windows(d time.Duration, n int, f []float64) (jps, p50, p95 []float64) {
	w := d / time.Duration(n)
	jobs := make([]float64, n)
	ms := make([][]float64, n)
	for _, s := range p.reqs {
		if k := int(s.end / w); k < n {
			ms[k] = append(ms[k], s.ms())
		}
		span := float64(max(s.end-s.start, 1))
		for k := int(s.start / w); k < n && time.Duration(k)*w < s.end; k++ {
			lo, hi := max(s.start, time.Duration(k)*w), min(s.end, time.Duration(k+1)*w)
			jobs[k] += float64(s.ok) * float64(hi-lo) / span
		}
	}
	for k := range jobs {
		fk := 1.0
		if f != nil {
			fk = f[k]
		}
		jps = append(jps, jobs[k]/w.Seconds()/fk)
		if len(ms[k]) > 0 {
			p50 = append(p50, quantile(ms[k], 0.5)*fk)
			p95 = append(p95, quantile(ms[k], 0.95)*fk)
		}
	}
	return jps, p50, p95
}

// drive runs clients closed loops against r, drawing requests from next
// through the shared counter seq, until limit requests have been drawn
// (limit > 0), d has elapsed (d > 0), or stop reports true.
func drive(ctx context.Context, r *rig, o *oracle, clients int, seq *atomic.Uint64, next func(uint64) request, limit uint64, d time.Duration, stop func() bool) phase {
	start := time.Now()
	parts := make([]phase, clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			p.reqs = make([]sample, 0, 1<<14)
			for ctx.Err() == nil && (d <= 0 || time.Since(start) < d) && (stop == nil || !stop()) {
				i := seq.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				req := next(i)
				t0 := time.Since(start)
				rows, err := r.call(ctx, req)
				end := time.Since(start)
				ok := 0
				if err != nil {
					p.errs = append(p.errs, err)
				} else {
					ok = o.check(req, rows)
				}
				p.reqs = append(p.reqs, sample{start: t0, end: end, ok: ok})
				p.attempted += len(req.names)
				p.ok += ok
			}
		}(&parts[c])
	}
	wg.Wait()
	all := phase{start: start, wall: time.Since(start)}
	for _, p := range parts {
		all.add(p)
	}
	return all
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// runtimeStats is a snapshot of the process-wide runtime counters, or
// the difference between two.
type runtimeStats struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// rssEvery is the resident-set sampling period of a measured phase.
const rssEvery = 50 * time.Millisecond

// rssSampler samples the process's resident set size until finished. The median of its samples is the rss_mb metric: the
// collector frees and re-faults memory every few jobs, so a high-water
// mark would mostly measure where one collection happened to land.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mib []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if v, err := rssMiB(); err == nil {
				mib = append(mib, v)
			}
			select {
			case <-s.stop:
				s.done <- mib
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples, in MiB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}

// rssMiB reads the resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("rss: malformed /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// Set-up is timed for setupBudget, or a fifth of a shorter measured time,
// in at least minSetupCycles and at most maxSetupCycles cycles.
const (
	setupBudget    = 2 * time.Second
	minSetupCycles = 5
	maxSetupCycles = 401
)

// setupTime builds the workload's topology, completes its priming
// request and closes it, again and again for budget (at least
// minSetupCycles times), and returns the median duration in seconds of
// reference-host time. Each cycle starts from cold memoization caches and
// a freshly collected heap, as a new process would.
func setupTime(ctx context.Context, w workload, in *inputs, o *oracle, budget time.Duration) (measurement, error) {
	host := sampleHost()
	ds, err := setupCycles(ctx, w, in, o, budget)
	f := hostFactor(host.finish())
	if err != nil {
		return measurement{}, err
	}
	return measurement{quantile(ds, 0.5) * f, "s", len(ds)}, nil
}

func setupCycles(ctx context.Context, w workload, in *inputs, o *oracle, budget time.Duration) ([]float64, error) {
	var ds []float64
	req := in.first
	start := time.Now()
	for len(ds) < minSetupCycles || (time.Since(start) < budget && len(ds) < maxSetupCycles) {
		engine.SharedPrograms.Purge()
		engine.SharedAnalyses.Purge()
		runtime.GC()
		t0 := time.Now()
		r, err := w.open(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rows, err := r.call(ctx, req)
		if cerr := r.close(); err == nil {
			err = cerr
		}
		ds = append(ds, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if ok := o.check(req, rows); ok != len(req.names) {
			return nil, fmt.Errorf("setup: priming request: %d of %d rows match the oracle", ok, len(req.names))
		}
	}
	return ds, nil
}

// analyzeColdUS times uncached gate-level analyses of the ART-9 netlist,
// three per technology, and returns the median in microseconds.
func analyzeColdUS() (float64, error) {
	techs, err := bench.Technologies(technologies)
	if err != nil {
		return 0, err
	}
	net := engine.ART9Netlist()
	var us []float64
	for rep := 0; rep < 3; rep++ {
		for _, tech := range techs {
			t0 := time.Now()
			gate.Analyze(net, tech)
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return quantile(us, 0.5), nil
}

// measureWindows is how many equal windows an untraced run's measured
// time is cut into. Throughput and latency quantiles are taken per window,
// rescaled by the host's speed in that window, and reported as their
// median over the windows, so a stall of the shared machine that spans
// fewer than half of them moves no metric.
const measureWindows = 40

// endToEndMetrics renders an untraced measured phase of length d; gc is
// the runtime counters' change over it and host the host samples taken
// during it.
func endToEndMetrics(ph phase, d time.Duration, gc runtimeStats, host []hostSample, setup measurement, rss []float64) map[string]measurement {
	f := hostFactors(host, ph.start, d, measureWindows)
	jps, p50, p95 := ph.windows(d, measureWindows, f)
	perJob := 0.0
	if ph.ok > 0 {
		perJob = float64(gc.allocBytes) / float64(ph.ok) / 1024
	}
	n := len(ph.reqs)
	return map[string]measurement{
		"jobs_per_s":       {quantile(jps, 0.5), "jobs/s", ph.ok},
		"latency_p50_ms":   {quantile(p50, 0.5), "ms", n},
		"latency_p95_ms":   {quantile(p95, 0.5), "ms", n},
		"alloc_kb_per_job": {perJob, "KiB", ph.ok},
		"rss_mb":           {quantile(rss, 0.5), "MiB", len(rss)},
		"setup_s":          setup,
		"host_factor":      {quantile(f, 0.5), "ratio", len(host)},
	}
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	lt     layerTotals
	counts [numCounters]int64
	// traced and untraced are the run's alternating slices; gc is the
	// runtime counters' change over the untraced ones.
	traced, untraced phase
	gc               runtimeStats
	workers          int
	// Counter deltas over the traced phase.
	programs, analyses engine.CacheStats
	chunks             uint64
	analyzeColdUS      float64
}

func layerMetrics(in layerInputs) map[string]measurement {
	lt := &in.lt
	jobs := in.traced.ok
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perJobUS := func(l layer) float64 { return div(float64(lt.self[l])/1e3, float64(jobs)) }
	share := func(l layer) float64 { return div(float64(lt.self[l]), float64(lt.rootTotal)) }
	// rate is millions of units per second of the layer's self time.
	rate := func(c counter, l layer) float64 { return div(float64(in.counts[c])/1e6, float64(lt.self[l])/1e9) }
	ratio := func(hits, misses uint64) float64 { return div(float64(hits), float64(hits+misses)) }

	v := map[string]float64{
		"sim.setup_us":                    perJobUS(spSimSetup),
		"sim.functional_us":               perJobUS(spFunctional),
		"sim.pipeline_us":                 perJobUS(spPipeline),
		"sim.functional_minst_per_s":      rate(cFnInsts, spFunctional),
		"sim.pipeline_mcycles_per_s":      rate(cPlCycles, spPipeline),
		"rv32.assemble_us":                perJobUS(spRVAssemble),
		"rv32.setup_us":                   perJobUS(spRVSetup),
		"rv32.run_us":                     perJobUS(spRVRun),
		"rv32.minst_per_s":                rate(cRVInsts, spRVRun),
		"xlate.translate_us":              perJobUS(spTranslate),
		"asm.assemble_us":                 perJobUS(spAssemble),
		"gate.analyze_cold_us":            in.analyzeColdUS,
		"engine.program_cache_hit_ratio":  ratio(in.programs.Hits, in.programs.Misses),
		"engine.analysis_cache_hit_ratio": ratio(in.analyses.Hits, in.analyses.Misses),
		"engine.queue_wait_us":            perJobUS(spQueue),
		"engine.worker_busy_frac":         div(float64(lt.total[spJob]), float64(in.workers)*float64(in.traced.wall)),
		"engine.balancer_chunks_per_job":  div(float64(in.chunks), float64(jobs)),
		"bench.manifest_decode_us":        perJobUS(spDecode),
		"bench.report_us":                 perJobUS(spReport),
		"bench.row_bytes":                 div(float64(in.counts[cRowBytes]), float64(in.counts[cRows])),
		"rescache.hit_ratio":              div(float64(in.counts[cHits]), float64(in.counts[cLookups])),
		"rescache.lookup_share":           share(spLookup),
		"rescache.store_share":            share(spStore),
		"serve.handler_share":             share(spHandler),
		"serve.first_row_frac":            div(float64(in.counts[cFirstRowNS]), float64(lt.total[spHandler])),
		"serve.wire_share":                share(spServeClient),
		"remote.wire_share":               share(spRemoteHTTP),
		"runtime.gc_cpu_frac":             div(in.gc.gcCPU, in.gc.totalCPU),
		"runtime.gc_cycles_per_1k_jobs":   div(float64(in.gc.gcCycles)*1000, float64(in.untraced.ok)),
		"trace.overhead_frac":             1 - div(in.traced.jobsPerS(), in.untraced.jobsPerS()),
		"trace.unattributed_frac":         lt.unattributed(),
	}
	out := make(map[string]measurement, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = measurement{Value: v[d.Name], Unit: d.Unit, Samples: jobs}
	}
	return out
}
