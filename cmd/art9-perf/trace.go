package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span recorder of the traced run. Spans are taken only
// from the benchmark's own files, around its calls into each layer's
// public functions: the program under test carries no tracing code.

// layer names one span kind: a boundary between the benchmark and one of
// the repository's modules.
type layer uint8

const (
	spRequest     layer = iota // one client request, the root of its trace
	spDecode                   // bench.ParseManifest + EngineJobs (or the serve handler up to dispatch)
	spQueue                    // job handed to an evaluator until its function starts
	spJob                      // one job's evaluation on a worker
	spDeliver                  // a finished job's result until Run returns it to the caller
	spRVAssemble               // rv32.Assemble
	spRVSetup                  // rv32.NewMachine, Observe, Load
	spRVRun                    // rv32.Machine.Run
	spTranslate                // xlate.Translate
	spAssemble                 // engine.AssembleCached (ART-9 assembly)
	spSimSetup                 // sim.NewFunctional/NewPipeline, State.Load, TDM.SetAll
	spFunctional               // sim.Functional.Run and ReadBack
	spPipeline                 // sim.Pipeline.Run and ReadBack
	spReport                   // bench.JobReportOf and the row's JSON encoding
	spLookup                   // engine.ResultCache.Lookup on the rescache tier
	spStore                    // engine.ResultCache.Store on the rescache tier
	spHandler                  // serve's POST /v1/suite handler
	spServeClient              // client side of one /v1/suite exchange
	spRemoteHTTP               // one remote.Client HTTP exchange with a leaf
	spRowDecode                // the client decoding NDJSON rows
	numLayers
)

var layerNames = [numLayers]string{
	spRequest:     "request",
	spDecode:      "bench.manifest_decode",
	spQueue:       "engine.queue_wait",
	spJob:         "engine.job",
	spDeliver:     "engine.deliver",
	spRVAssemble:  "rv32.assemble",
	spRVSetup:     "rv32.setup",
	spRVRun:       "rv32.run",
	spTranslate:   "xlate.translate",
	spAssemble:    "asm.assemble",
	spSimSetup:    "sim.setup",
	spFunctional:  "sim.functional",
	spPipeline:    "sim.pipeline",
	spReport:      "bench.report",
	spLookup:      "rescache.lookup",
	spStore:       "rescache.store",
	spHandler:     "serve.suite_handler",
	spServeClient: "serve.client",
	spRemoteHTTP:  "remote.http",
	spRowDecode:   "client.row_decode",
}

// counter names a count the traced run takes at a layer boundary.
type counter uint8

const (
	cRVInsts    counter = iota // RV32 instructions retired
	cFnInsts                   // ART-9 instructions retired on the functional core
	cPlCycles                  // ART-9 cycles on the pipelined core
	cRows                      // report rows encoded
	cRowBytes                  // bytes of those rows
	cLookups                   // result-cache lookups
	cHits                      // result-cache hits
	cFirstRowNS                // serve handler start to its first row, summed
	numCounters
)

// span is one closed interval of a trace. Times are nanoseconds since the
// tracer's epoch; IDs are unique within the tracer.
type span struct {
	start, end int64
	trace, id  uint32
	parent     uint32
	name       layer
}

// spanCtx identifies an open span to its children.
type spanCtx struct{ trace, id uint32 }

// spanCap bounds the in-memory span buffer; a traced phase ends early
// once it is nearly full rather than dropping spans.
const spanCap = 1 << 19

// tracer records spans into a buffer mapped once up front, outside the
// Go heap. A nil *tracer is the untraced path: every method is a no-op
// on it.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint32
	counts  [numCounters]atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
	free    func()
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.spans, t.free = offHeap[span](spanCap)
	t.spans = t.spans[:0]
	return t
}

// release frees the span buffer; spans recorded afterwards are dropped.
func (t *tracer) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.free()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// full reports whether the buffer is close enough to capacity that a
// running phase should stop.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) > spanCap*9/10
}

// reset forgets every span and count, between phases.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.mu.Unlock()
	for i := range t.counts {
		t.counts[i].Store(0)
	}
}

// snapshot returns the spans recorded so far and how many were dropped
// for want of room.
func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

func (t *tracer) add(c counter, n int64) {
	if t != nil {
		t.counts[c].Add(n)
	}
}

// spansRecorded counts the spans every tracer of the process recorded,
// so a test can show that an untraced run records none.
var spansRecorded atomic.Int64

func (t *tracer) record(name layer, self spanCtx, parent uint32, start, end int64) {
	spansRecorded.Add(1)
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{start: start, end: end, trace: self.trace, id: self.id, parent: parent, name: name})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// openSpan is a span being timed; end closes and records it.
type openSpan struct {
	t      *tracer
	ctx    spanCtx
	parent spanCtx
	name   layer
	start  int64
}

// root opens the first span of a new trace.
func (t *tracer) root(name layer) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.ids.Add(1)
	return openSpan{t: t, ctx: spanCtx{trace: id, id: id}, name: name, start: t.now()}
}

// begin opens a child of parent. Outside any trace (a zero parent: the
// untraced path, health probes) it records nothing.
func (t *tracer) begin(parent spanCtx, name layer) openSpan {
	return t.beginAt(parent, name, 0)
}

// beginAt is begin with an explicit start time (0: now).
func (t *tracer) beginAt(parent spanCtx, name layer, start int64) openSpan {
	if t == nil || parent.trace == 0 {
		return openSpan{}
	}
	if start == 0 {
		start = t.now()
	}
	return openSpan{t: t, ctx: spanCtx{trace: parent.trace, id: t.ids.Add(1)}, parent: parent, name: name, start: start}
}

func (s openSpan) end() {
	if s.t != nil {
		s.t.record(s.name, s.ctx, s.parent.id, s.start, s.t.now())
	}
}

// interval records a span whose bounds were measured elsewhere.
func (t *tracer) interval(parent spanCtx, name layer, start, end int64) {
	if t != nil && parent.trace != 0 {
		t.record(name, spanCtx{trace: parent.trace, id: t.ids.Add(1)}, parent.id, start, end)
	}
}

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	if sc.trace == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanOf(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// spanHeader carries a span across an HTTP hop as "trace.id".
const spanHeader = "X-Art9-Perf-Span"

func (sc spanCtx) header() string {
	return strconv.FormatUint(uint64(sc.trace), 10) + "." + strconv.FormatUint(uint64(sc.id), 10)
}

func parseSpanHeader(v string) spanCtx {
	tr, id, ok := strings.Cut(v, ".")
	if !ok {
		return spanCtx{}
	}
	a, err1 := strconv.ParseUint(tr, 10, 32)
	b, err2 := strconv.ParseUint(id, 10, 32)
	if err1 != nil || err2 != nil {
		return spanCtx{}
	}
	return spanCtx{trace: uint32(a), id: uint32(b)}
}

// layerTotals aggregates spans per layer. Self time is a span's duration
// minus the part of it its children cover; children may overlap each
// other (a suite's jobs run on several workers) and are merged first.
type layerTotals struct {
	self, total, count [numLayers]int64
	// rootTotal and rootSelf sum the trace roots' durations and the
	// parts of them no child span covers.
	rootTotal, rootSelf int64
	roots               int64
}

// unattributed is the share of root time no child span accounts for.
func (lt *layerTotals) unattributed() float64 {
	if lt.rootTotal == 0 {
		return 0
	}
	return float64(lt.rootSelf) / float64(lt.rootTotal)
}

func aggregate(spans []span) layerTotals {
	var maxID uint32
	for _, s := range spans {
		maxID = max(maxID, s.id)
	}
	byID := make([]int32, maxID+1)
	for i := range byID {
		byID[i] = -1
	}
	for i, s := range spans {
		byID[s.id] = int32(i)
	}
	self := make([]int64, len(spans))
	order := make([]int, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	for lo := 0; lo < len(order); {
		hi := lo
		pid := spans[order[lo]].parent
		for hi < len(order) && spans[order[hi]].parent == pid {
			hi++
		}
		if pid != 0 && int(pid) < len(byID) && byID[pid] >= 0 {
			p := spans[byID[pid]]
			var covered, reach int64
			reach = p.start
			for _, i := range order[lo:hi] {
				s, e := max(spans[i].start, reach), min(spans[i].end, p.end)
				if e > s {
					covered += e - s
					reach = e
				}
			}
			self[byID[pid]] -= covered
		}
		lo = hi
	}
	var lt layerTotals
	for i, s := range spans {
		d := s.end - s.start
		lt.self[s.name] += self[i]
		lt.total[s.name] += d
		lt.count[s.name]++
		if s.parent == 0 || int(s.parent) >= len(byID) || byID[s.parent] < 0 {
			lt.rootTotal += d
			lt.rootSelf += self[i]
			lt.roots++
		}
	}
	return lt
}

// writeSpans writes spans as JSONL, one object per line, with absolute
// Unix-nanosecond times.
func (t *tracer) writeSpans(w io.Writer, spans []span) error {
	type row struct {
		Name   string `json:"name"`
		Trace  uint32 `json:"trace_id"`
		Span   uint32 `json:"span_id"`
		Parent uint32 `json:"parent_id"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	base := t.epoch.UnixNano()
	for _, s := range spans {
		if err := enc.Encode(row{layerNames[s.name], s.trace, s.id, s.parent, base + s.start, base + s.end}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
