package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	art9 "repro"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/remote"
	"repro/internal/serve"
	"repro/internal/xlate"
)

// evaluatorWorkers is the number of evaluator workers in every topology,
// one per CPU of the 2-core machines the benchmark was built on.
const evaluatorWorkers = 2

// rig is one built topology of the system under test plus the client
// call that drives it. A rig opened with a nil tracer is the untraced
// topology, built only through the public constructors; a traced rig is
// the same topology with the traced.go instruments at its seams.
type rig struct {
	// ev is the evaluator the art9-batch path submits to (engine and
	// fleet workloads); suiteURL is the serve-replay endpoint instead.
	ev       engine.Evaluator
	suiteURL string
	hc       *http.Client
	t        *tracer
	// mirror swaps job functions for the traced mirror client-side; the
	// fleet's jobs run on its leaves, which mirror them there.
	mirror  bool
	closers []func() error
}

func (r *rig) call(ctx context.Context, req request) ([]bench.JobReport, error) {
	if r.suiteURL != "" {
		return r.postSuite(ctx, req)
	}
	return r.runBatch(ctx, req)
}

// close releases the front first, then everything it fronted.
func (r *rig) close() error {
	var errs []error
	if r.ev != nil {
		errs = append(errs, r.ev.Close())
	}
	for _, c := range r.closers {
		errs = append(errs, c())
	}
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// balancer returns the rig's Balancer front, or nil.
func (r *rig) balancer() *engine.Balancer {
	b, _ := r.ev.(*engine.Balancer)
	return b
}

// runBatch is the art9-batch path: parse the manifest, build engine
// jobs, run them, render each result as a report row and encode it.
func (r *rig) runBatch(ctx context.Context, req request) ([]bench.JobReport, error) {
	root := r.t.root(spRequest)
	defer root.end()
	ctx = withSpan(ctx, root.ctx)

	sp := r.t.begin(root.ctx, spDecode)
	m, err := bench.ParseManifest(req.manifest)
	var techs []*gate.Technology
	var jobs []engine.Job
	if err == nil {
		techs, err = m.ResolveTechnologies()
	}
	if err == nil {
		jobs, err = m.EngineJobs("", xlate.Options{})
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	var ends []int64
	if r.mirror {
		ends = make([]int64, len(jobs))
		jobs = r.t.mirrorJobs(jobs, r.t.now(), ends)
	}
	results, err := r.ev.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	if r.mirror {
		// The hand-back: a finished job's result reaching this goroutine.
		now := r.t.now()
		for _, end := range ends {
			if end > 0 {
				r.t.interval(root.ctx, spDeliver, end, now)
			}
		}
	}
	rows := make([]bench.JobReport, len(results))
	for i, res := range results {
		sp := r.t.begin(root.ctx, spReport)
		rows[i] = bench.JobReportOf(res, techs)
		line, err := json.Marshal(rows[i])
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("encode row: %w", err)
		}
		r.t.add(cRows, 1)
		r.t.add(cRowBytes, int64(len(line)))
	}
	return rows, nil
}

// postSuite POSTs the manifest to /v1/suite and decodes the NDJSON rows.
func (r *rig) postSuite(ctx context.Context, req request) ([]bench.JobReport, error) {
	root := r.t.root(spRequest)
	defer root.end()

	cl := r.t.begin(root.ctx, spServeClient)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.suiteURL, bytes.NewReader(req.manifest))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if cl.t != nil {
		hreq.Header.Set(spanHeader, cl.ctx.header())
	}
	resp, err := r.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.end()
	if err != nil {
		return nil, fmt.Errorf("read suite stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("suite: %s: %s", resp.Status, bytes.TrimSpace(body))
	}

	sp := r.t.begin(root.ctx, spRowDecode)
	defer sp.end()
	rows := make([]bench.JobReport, 0, len(req.names))
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var jr bench.JobReport
		if err := dec.Decode(&jr); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return nil, fmt.Errorf("decode suite row: %w", err)
		}
		rows = append(rows, jr)
	}
}

// openEngine is the short-jobs and long-sim topology: one local pool
// behind art9.New, driven the art9-batch way.
func openEngine(ctx context.Context, t *tracer) (*rig, error) {
	ev, err := art9.New(art9.WithWorkers(evaluatorWorkers))
	if err != nil {
		return nil, err
	}
	return &rig{ev: ev, t: t, mirror: t != nil}, nil
}

// replayCacheBytes bounds serve-replay's result cache to a few times its
// hot pool, so one-off fills are evicted and memory settles during the
// warm-up instead of growing with the number of requests served.
const replayCacheBytes = 1 << 20

// openServe is the serve-replay topology: an in-process art9-serve with
// one pool and a bounded result cache on a loopback listener, and an HTTP
// client of at most two connections.
func openServe(ctx context.Context, t *tracer) (*rig, error) {
	r := &rig{
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		t:  t,
	}
	base, err := r.serve(evaluatorWorkers, replayCacheBytes)
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	r.suiteURL = base + "/v1/suite"
	return r, nil
}

// openFleet is the fleet-chunked topology: two loopback art9-serve leaves
// sharing the workers behind a failover Balancer with chunked dispatch —
// art9-batch -peers a,b -failover -chunk 4. Traced, the Balancer is
// assembled from remote clients whose HTTP transport is timed.
func openFleet(ctx context.Context, t *tracer) (*rig, error) {
	r := &rig{t: t}
	var urls []string
	for i := 0; i < 2; i++ {
		base, err := r.serve(evaluatorWorkers/2, 0)
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		urls = append(urls, base)
	}
	if t == nil {
		ev, err := art9.New(art9.WithPeers(urls...), art9.WithFailover(), art9.WithChunk(4))
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.ev = ev
	} else {
		var leaves []engine.Evaluator
		for _, u := range urls {
			hc := &http.Client{Transport: traceTransport{t: t, base: &http.Transport{}}}
			c, err := remote.New(u, remote.WithHTTPClient(hc))
			if err != nil {
				return nil, errors.Join(err, r.close())
			}
			leaves = append(leaves, c)
		}
		r.ev = engine.NewBalancer(engine.BalancerOptions{Chunk: 4}, leaves...)
	}
	// The Balancer sizes chunks from its leaves' scraped capacity, first
	// taken by the probe loop two seconds in; take that round now so every
	// phase measures the steady state.
	r.balancer().ProbeNow(ctx)
	return r, nil
}

// serve starts one art9-serve instance on a loopback listener, owned by
// the rig, and returns its base URL. cacheBytes bounds its result cache
// (0: no cache). Untraced it is built by serve.New; traced, the same
// engine and cache tier are assembled by hand around the traced.go
// instruments and served by serve.NewWithBackend.
func (r *rig) serve(workers int, cacheBytes int64) (string, error) {
	var srv *serve.Server
	var h http.Handler
	if r.t == nil {
		s, err := serve.New(serve.Config{Workers: workers, Cache: cacheBytes > 0, CacheMaxBytes: cacheBytes})
		if err != nil {
			return "", err
		}
		srv, h = s, s.Handler()
	} else {
		opts := engine.Options{Workers: workers}
		if cacheBytes > 0 {
			tier, err := remote.NewResultCacheWith(remote.ResultCacheConfig{MaxBytes: cacheBytes})
			if err != nil {
				return "", err
			}
			opts.Cache = tracedCache{inner: bench.NewResultCache(tier), t: r.t}
		}
		srv = serve.NewWithBackend(tracedBackend{Evaluator: engine.New(opts), t: r.t})
		h = r.t.middleware(srv.Handler())
	}
	base, stop, err := listen(h)
	if err != nil {
		return "", errors.Join(err, srv.Close())
	}
	r.closers = append(r.closers, stop, srv.Close)
	return base, nil
}

// listen serves h on a loopback port until the returned stop is called;
// stop returns once the server has shut down.
func listen(h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}
