package engine

// Tests for the engine's spans: Program's resolve span reports the
// cache outcome and nests where a miss actually went (compile, or
// store_decode on a store hit).

import (
	"testing"
	"time"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/trace"
)

func spanIndex(rec *trace.Record, stage string) int {
	for i := range rec.Spans {
		if rec.Spans[i].Stage == stage {
			return i
		}
	}
	return -1
}

func TestProgramResolveSpans(t *testing.T) {
	e := New(Options{})
	tracer := trace.New(trace.Options{Service: "test"})
	g := testGraph(21)

	tr := tracer.Start(trace.ID{}, "request", time.Time{})
	if _, _, err := e.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, testCfg, compiler.Options{}, tr); err != nil {
		t.Fatal(err)
	}
	miss := tracer.Finish(tr)

	ri := spanIndex(miss, "resolve")
	ci := spanIndex(miss, "compile")
	if ri < 0 || ci < 0 {
		t.Fatalf("miss trace lacks resolve/compile spans: %+v", miss.Spans)
	}
	rsp, csp := miss.Spans[ri], miss.Spans[ci]
	if rsp.Attrs["cache_hit"] != false {
		t.Fatalf("resolve attrs %+v, want cache_hit=false on a cold cache", rsp.Attrs)
	}
	if rsp.Attrs["fingerprint"] != g.Fingerprint().Short() {
		t.Fatalf("resolve attrs %+v, want the graph fingerprint", rsp.Attrs)
	}
	if csp.Parent != ri {
		t.Fatalf("compile span parent %d, want nested under resolve %d", csp.Parent, ri)
	}
	if csp.Attrs["nodes"] == nil {
		t.Fatalf("compile attrs %+v, want a nodes count", csp.Attrs)
	}
	if spanIndex(miss, "store_decode") >= 0 {
		t.Fatal("store_decode span recorded with no store configured")
	}

	// Same key again: a hit resolves without compiling.
	tr = tracer.Start(trace.ID{}, "request", time.Time{})
	if _, _, err := e.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, testCfg, compiler.Options{}, tr); err != nil {
		t.Fatal(err)
	}
	hit := tracer.Finish(tr)
	hi := spanIndex(hit, "resolve")
	if hi < 0 || hit.Spans[hi].Attrs["cache_hit"] != true {
		t.Fatalf("hit trace resolve %+v, want cache_hit=true", hit.Spans)
	}
	if spanIndex(hit, "compile") >= 0 {
		t.Fatal("cache hit still recorded a compile span")
	}
}

func TestProgramStoreDecodeSpan(t *testing.T) {
	st := openStore(t)
	g := testGraph(22)

	// First engine persists the artifact.
	e1 := newStoreEngine(t, Options{Store: st})
	if _, err := e1.Compile(g, testCfg, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	e1.Flush()

	// Second engine's in-memory miss is answered by the store: the
	// resolve span nests a store_decode hit instead of a compile.
	e2 := newStoreEngine(t, Options{Store: st})
	tracer := trace.New(trace.Options{})
	tr := tracer.Start(trace.ID{}, "request", time.Time{})
	if _, _, err := e2.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, testCfg, compiler.Options{}, tr); err != nil {
		t.Fatal(err)
	}
	rec := tracer.Finish(tr)

	ri := spanIndex(rec, "resolve")
	si := spanIndex(rec, "store_decode")
	if ri < 0 || si < 0 {
		t.Fatalf("trace lacks resolve/store_decode spans: %+v", rec.Spans)
	}
	ssp := rec.Spans[si]
	if ssp.Parent != ri || ssp.Attrs["hit"] != true {
		t.Fatalf("store_decode span %+v, want a hit nested under resolve %d", ssp, ri)
	}
	if spanIndex(rec, "compile") >= 0 {
		t.Fatal("store hit still recorded a compile span")
	}
}
