package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAggregateSelfTime checks self time, per-layer totals and the
// unattributed share on a synthetic tree with nested, overlapping and
// out-of-bounds children:
//
//	request [0,100]
//	├─ engine.job [10,40]
//	│  ├─ sim.setup [15,25]
//	│  └─ sim.setup [20,30]   overlaps its sibling
//	├─ bench.report [35,60]   overlaps engine.job
//	└─ bench.report [90,120]  runs past its parent's end
//	request [200,210]         no children
//	sim.pipeline [300,305]    parent never recorded: counts as a root
func TestAggregateSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, trace: 1, id: 1, name: spRequest},
		{start: 10, end: 40, trace: 1, id: 2, parent: 1, name: spJob},
		{start: 15, end: 25, trace: 1, id: 3, parent: 2, name: spSimSetup},
		{start: 20, end: 30, trace: 1, id: 4, parent: 2, name: spSimSetup},
		{start: 35, end: 60, trace: 1, id: 5, parent: 1, name: spReport},
		{start: 90, end: 120, trace: 1, id: 6, parent: 1, name: spReport},
		{start: 200, end: 210, trace: 7, id: 7, name: spRequest},
		{start: 300, end: 305, trace: 9, id: 8, parent: 99, name: spPipeline},
	}
	lt := aggregate(spans)
	want := map[layer][3]int64{ // self, total, count
		spRequest:  {40 + 10, 100 + 10, 2}, // 100 - |[10,60] ∪ [90,100]|, then the childless root
		spJob:      {30 - 15, 30, 1},       // 30 - |[15,30]|
		spSimSetup: {20, 20, 2},
		spReport:   {55, 55, 2},
		spPipeline: {5, 5, 1},
	}
	for l, w := range want {
		if got := [3]int64{lt.self[l], lt.total[l], lt.count[l]}; got != w {
			t.Errorf("%s: self/total/count = %v, want %v", layerNames[l], got, w)
		}
	}
	if lt.roots != 3 || lt.rootTotal != 115 || lt.rootSelf != 55 {
		t.Errorf("roots = %d, total %d, self %d; want 3, 115, 55", lt.roots, lt.rootTotal, lt.rootSelf)
	}
	if got, want := lt.unattributed(), 55.0/115; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributed = %v, want %v", got, want)
	}
}

func TestTracerRecordsSpanTrees(t *testing.T) {
	tr := newTracer()
	defer tr.release()
	root := tr.root(spRequest)
	child := tr.begin(root.ctx, spJob)
	tr.interval(child.ctx, spSimSetup, child.start, tr.now())
	child.end()
	root.end()
	tr.begin(spanCtx{}, spJob).end() // outside any trace: dropped

	spans, dropped := tr.snapshot()
	if len(spans) != 3 || dropped != 0 {
		t.Fatalf("recorded %d spans, dropped %d; want 3, 0", len(spans), dropped)
	}
	for _, s := range spans {
		if s.trace != root.ctx.trace {
			t.Errorf("%s in trace %d, want %d", layerNames[s.name], s.trace, root.ctx.trace)
		}
	}
	var buf bytes.Buffer
	if err := tr.writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var row struct {
		Name     string `json:"name"`
		TraceID  uint32 `json:"trace_id"`
		SpanID   uint32 `json:"span_id"`
		ParentID uint32 `json:"parent_id"`
		Start    int64  `json:"start"`
		End      int64  `json:"end"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &row); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || row.Name != "request" || row.ParentID != 0 || row.End < row.Start {
		t.Errorf("spans.jsonl: %d lines, last %+v", len(lines), row)
	}

	var nilTracer *tracer
	nilTracer.root(spRequest).end()
	nilTracer.add(cRows, 1)
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	sc := spanCtx{trace: 12, id: 4_000_000_000}
	if got := parseSpanHeader(sc.header()); got != sc {
		t.Errorf("round trip = %+v, want %+v", got, sc)
	}
	for _, bad := range []string{"", "1", "a.b", "1.-2", "1.99999999999"} {
		if got := parseSpanHeader(bad); got != (spanCtx{}) {
			t.Errorf("parseSpanHeader(%q) = %+v, want zero", bad, got)
		}
	}
}
