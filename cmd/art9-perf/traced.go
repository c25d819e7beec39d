package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rv32"
	"repro/internal/sim"
	"repro/internal/xlate"
)

// This file holds the traced run's instruments: wrappers that sit at the
// public seams of each layer — job functions, the Evaluator and
// ResultCache interfaces, HTTP handlers and transports — and record
// spans around the calls that cross them.

// runJob mirrors bench.RunCtx stage by stage from the same public calls,
// timing each stage as a child of parent. The Outcome must equal
// RunCtx's: every row rendered from it is checked against the oracle.
func (t *tracer) runJob(ctx context.Context, parent spanCtx, w bench.Workload) (*bench.Outcome, error) {
	stop := func(err error) error { return fmt.Errorf("bench %s: %w", w.Name, err) }
	if err := ctx.Err(); err != nil {
		return nil, stop(err)
	}
	sp := t.begin(parent, spRVAssemble)
	rvProg, err := rv32.Assemble(w.Source)
	sp.end()
	if err != nil {
		return nil, stop(fmt.Errorf("rv32 assemble: %w", err))
	}

	sp = t.begin(parent, spRVSetup)
	m := rv32.NewMachine(1 << 16)
	vex := rv32.NewVexRiscvModel()
	pico := rv32.NewPicoRV32Model()
	m.Observe(vex)
	m.Observe(pico)
	err = m.Load(rvProg)
	sp.end()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, stop(err)
	}
	sp = t.begin(parent, spRVRun)
	err = m.Run()
	sp.end()
	if err != nil {
		return nil, stop(fmt.Errorf("rv32 run: %w", err))
	}
	t.add(cRVInsts, int64(m.Retired))
	ref := int(int32(m.Reg(10)))

	sp = t.begin(parent, spTranslate)
	out, err := xlate.Translate(rvProg, xlate.Options{})
	sp.end()
	if err != nil {
		return nil, stop(fmt.Errorf("translate: %w", err))
	}
	sp = t.begin(parent, spAssemble)
	artProg, err := engine.AssembleCached(out.Asm)
	sp.end()
	if err != nil {
		return nil, stop(fmt.Errorf("art9 assemble: %w", err))
	}
	data := xlate.DataImage(rvProg)

	// load builds one core's state from the program and data image.
	load := func(s *sim.State) error {
		if err := s.Load(artProg); err != nil {
			return err
		}
		return s.TDM.SetAll(data)
	}
	sp = t.begin(parent, spSimSetup)
	fn := sim.NewFunctional(sim.Config{})
	err = load(fn.S)
	sp.end()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, stop(err)
	}
	sp = t.begin(parent, spFunctional)
	fres, err := fn.Run()
	var fchk int
	if err == nil {
		fchk, err = out.ReadBack(fn.S, 10)
	}
	sp.end()
	if err != nil {
		return nil, stop(fmt.Errorf("art9 functional: %w", err))
	}
	t.add(cFnInsts, int64(fres.Retired))
	if fchk != ref {
		return nil, stop(fmt.Errorf("functional checksum %d != rv32 %d", fchk, ref))
	}

	sp = t.begin(parent, spSimSetup)
	pl := sim.NewPipeline(sim.Config{})
	err = load(pl.S)
	sp.end()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, stop(err)
	}
	sp = t.begin(parent, spPipeline)
	pres, err := pl.Run()
	var pchk int
	if err == nil {
		pchk, err = out.ReadBack(pl.S, 10)
	}
	sp.end()
	if err != nil {
		return nil, stop(fmt.Errorf("art9 pipeline: %w", err))
	}
	t.add(cPlCycles, int64(pres.Cycles))
	if pchk != ref {
		return nil, stop(fmt.Errorf("pipelined checksum %d != rv32 %d", pchk, ref))
	}

	return &bench.Outcome{
		Workload:        w,
		RVInsts:         len(rvProg.Insts),
		RVBits:          rvProg.TextBits(),
		ARMBits:         rv32.EstimateProgram(rvProg),
		ARTInsts:        len(artProg.Text),
		ARTTrits:        artProg.TextCells(),
		Checksum:        ref,
		ART9Cycles:      pres.Cycles,
		VexCycles:       vex.TotalCycles(),
		PicoCycles:      pico.TotalCycles(),
		ARTRetired:      pres.Retired,
		ARTStallsLoad:   pres.StallsLoad,
		ARTStallsBranch: pres.StallsBranch,
		ARTLoads:        pres.Loads,
		ARTStores:       pres.Stores,
		RVRetired:       m.Retired,
		Diagnostics:     out.Diagnostics,
		Removed:         out.Removed,
	}, nil
}

// mirrorJobs returns jobs whose functions run the traced mirror instead of
// bench.RunCtx. queued is when the jobs were handed to the evaluator; the
// wait until a worker starts each one is recorded as engine.queue_wait.
// The parent span comes from the job's context, so it follows the jobs
// through an Engine and across a serve handler alike. When ends is
// non-nil, job i stores the time it finished in ends[i].
func (t *tracer) mirrorJobs(jobs []engine.Job, queued int64, ends []int64) []engine.Job {
	out := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j
		spec, ok := j.Spec.(*bench.JobSpec)
		if !ok {
			continue
		}
		i := i
		out[i].Fn = func(ctx context.Context) (any, error) {
			parent := spanOf(ctx)
			start := t.now()
			t.interval(parent, spQueue, queued, start)
			js := t.beginAt(parent, spJob, start)
			defer func() {
				js.end()
				if ends != nil {
					ends[i] = t.now()
				}
			}()
			w, err := spec.Job.Resolve("")
			if err != nil {
				return nil, err
			}
			return t.runJob(ctx, js.ctx, w)
		}
	}
	return out
}

// reqTrace is the per-request state the handler middleware shares with
// tracedBackend and traceWriter through the request context.
type reqTrace struct {
	span  spanCtx
	start int64
	// ready[k] is when the k-th result was offered to the handler; only
	// the handler goroutine touches the other fields.
	ready     []int64
	rows      int
	lastFlush int64
}

type reqKey struct{}

func reqOf(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(reqKey{}).(*reqTrace)
	return rt
}

// middleware times traced POST /v1/suite requests on a serve handler.
// The caller's span arrives in spanHeader; requests without one (health
// probes, capacity scrapes) pass through untouched.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		if parent.trace == 0 || r.URL.Path != "/v1/suite" {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin(parent, spHandler)
		rt := &reqTrace{span: sp.ctx, start: sp.start}
		ctx := context.WithValue(withSpan(r.Context(), sp.ctx), reqKey{}, rt)
		h.ServeHTTP(&traceWriter{ResponseWriter: w, t: t, rt: rt}, r.WithContext(ctx))
		sp.end()
	})
}

// traceWriter times each report row the suite handler writes: from when
// the handler could take the row's result (offered, or the previous row
// flushed, whichever is later) to when its encoded line is written.
type traceWriter struct {
	http.ResponseWriter
	t  *tracer
	rt *reqTrace
}

func (w *traceWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	rt := w.rt
	if rt.rows < len(rt.ready) {
		end := w.t.now()
		w.t.interval(rt.span, spReport, max(rt.ready[rt.rows], rt.lastFlush), end)
		if rt.rows == 0 {
			w.t.add(cFirstRowNS, end-rt.start)
		}
		w.t.add(cRows, 1)
		w.t.add(cRowBytes, int64(n))
		rt.rows++
	}
	return n, err
}

func (w *traceWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.rt.lastFlush = w.t.now()
}

// tracedBackend is the Evaluator a traced serve instance runs on. Its
// Stream — what the /v1/suite handler calls — swaps each job's function
// for the traced mirror and, inside a traced request, records the
// handler's decode time and offers results one at a time so traceWriter
// can time each row. Its Stream channel is unbuffered; the suite handler
// always drains it. Run, which no workload reaches, is not instrumented.
type tracedBackend struct {
	engine.Evaluator
	t *tracer
}

func (b tracedBackend) Stream(ctx context.Context, jobs []engine.Job) <-chan engine.Result {
	now := b.t.now()
	in := b.Evaluator.Stream(ctx, b.t.mirrorJobs(jobs, now, nil))
	rt := reqOf(ctx)
	if rt == nil {
		return in
	}
	b.t.interval(rt.span, spDecode, rt.start, now)
	rt.ready = make([]int64, len(jobs))
	out := make(chan engine.Result)
	go func() {
		defer close(out)
		k := 0
		for r := range in {
			if k < len(rt.ready) {
				rt.ready[k] = b.t.now()
			}
			k++
			select {
			case out <- r:
			case <-ctx.Done():
			}
		}
	}()
	return out
}

// tracedCache times the result-cache tier behind the dispatch path.
type tracedCache struct {
	inner *bench.ResultCache
	t     *tracer
}

func (c tracedCache) Lookup(ctx context.Context, spec any) (any, bool) {
	sp := c.t.begin(spanOf(ctx), spLookup)
	v, ok := c.inner.Lookup(ctx, spec)
	sp.end()
	c.t.add(cLookups, 1)
	if ok {
		c.t.add(cHits, 1)
	}
	return v, ok
}

func (c tracedCache) Store(ctx context.Context, spec any, value any) {
	sp := c.t.begin(spanOf(ctx), spStore)
	c.inner.Store(ctx, spec, value)
	sp.end()
}

// Close drains the tier like the untraced topology's Close does.
func (c tracedCache) Close() error { return c.inner.Close() }

// traceTransport times a remote.Client's HTTP exchanges with its leaves
// and forwards the span so the leaf's handler span nests under it. The
// exchange ends when the response body is drained or closed.
type traceTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := tt.t.begin(spanOf(req.Context()), spRemoteHTTP)
	if sp.t == nil {
		return tt.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, sp.ctx.header())
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp   openSpan
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.sp.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}
