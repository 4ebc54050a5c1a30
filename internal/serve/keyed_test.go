package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
)

// keyedGraph is one client graph of the keyed-path test: its text, the
// fingerprint and sinks dag.Read gives it, an input vector, and the
// reference outputs dag.Eval(dag.Binarize(g)) read through the remap.
type keyedGraph struct {
	text  string
	fp    dag.Fingerprint
	sinks []int
	in    []float64
	want  []float64
}

func newKeyedGraph(t *testing.T, seed int64) keyedGraph {
	t.Helper()
	var sb strings.Builder
	// k-ary, so the client's sink ids differ from the compiled graph's.
	src := dag.RandomGraph(dag.RandomConfig{Inputs: 5, Interior: 40, MaxArgs: 3, MulFrac: 0.4, Seed: seed})
	if err := dag.Write(&sb, src); err != nil {
		t.Fatal(err)
	}
	g, err := dag.Read(strings.NewReader(sb.String()), "oracle")
	if err != nil {
		t.Fatal(err)
	}
	k := keyedGraph{text: sb.String(), fp: g.Fingerprint()}
	for i := range g.Inputs() {
		k.in = append(k.in, 0.5+float64(i)*0.25)
	}
	bg, remap := dag.Binarize(g)
	vals, err := dag.Eval(bg, k.in)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range g.Outputs() {
		k.sinks = append(k.sinks, int(sk))
		k.want = append(k.want, vals[remap[sk]])
	}
	return k
}

// keyedServer serves eng; every answer it gives is checked against the
// oracle: fingerprint, sinks, and outputs bit for bit.
type keyedServer struct {
	t   *testing.T
	eng *engine.Engine
	srv *httptest.Server
}

func newKeyedServer(t *testing.T, eng *engine.Engine) *keyedServer {
	s := New(eng, Options{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(s.Drain)
	t.Cleanup(eng.Flush)
	return &keyedServer{t: t, eng: eng, srv: srv}
}

// post sends k and returns the status, checking a 200's answer.
func (ks *keyedServer) post(k keyedGraph) int {
	ks.t.Helper()
	resp, out := postExecute(ks.t, ks.srv, ExecuteRequest{Graph: k.text, Inputs: [][]float64{k.in}})
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode
	}
	if out.Fingerprint != k.fp.String() || !slices.Equal(out.Sinks, k.sinks) {
		ks.t.Errorf("answer names %s with sinks %v, dag.Read gives %s with %v", out.Fingerprint, out.Sinks, k.fp, k.sinks)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" || len(out.Results[0].Outputs) != len(k.want) {
		ks.t.Fatalf("results %+v, want %d outputs", out.Results, len(k.want))
	}
	for j, v := range out.Results[0].Outputs {
		if math.Float64bits(v) != math.Float64bits(k.want[j]) {
			ks.t.Errorf("%s output %d = %v, oracle %v", k.fp.Short(), j, v, k.want[j])
		}
	}
	return resp.StatusCode
}

// step posts k and checks the status and what the engine counted for
// it: a hit, a compile, or a store decode, and any evictions.
func (ks *keyedServer) step(name string, k keyedGraph, status int, hits, misses, storeHits, evictions int64) {
	ks.t.Helper()
	before := ks.eng.Stats()
	if got := ks.post(k); got != status {
		ks.t.Fatalf("%s: status %d, want %d", name, got, status)
	}
	after := ks.eng.Stats()
	got := [4]int64{after.Hits - before.Hits, after.Misses - before.Misses, after.StoreHits - before.StoreHits, after.Evictions - before.Evictions}
	if want := [4]int64{hits, misses, storeHits, evictions}; got != want {
		ks.t.Errorf("%s: hits, misses, store hits, evictions %v, want %v", name, got, want)
	}
}

// resident reports whether eng answers k by key, and checks the sinks
// it answers with. A true answer counts a hit, as a request's would.
func resident(t *testing.T, eng *engine.Engine, k keyedGraph) bool {
	t.Helper()
	_, sinks, ok := eng.Lookup(k.fp, arch.MinEDP(), compiler.Options{}, nil)
	if ok && !slices.Equal(intSinks(sinks), k.sinks) {
		t.Errorf("Lookup answers %s with sinks %v, dag.Read gives %v", k.fp.Short(), sinks, k.sinks)
	}
	return ok
}

func intSinks(sinks []dag.NodeID) []int {
	out := make([]int, len(sinks))
	for i, s := range sinks {
		out[i] = int(s)
	}
	return out
}

// TestKeyedHitPathOnTheWire cycles four graphs through a two-entry
// cache backed by a store, then restarts the server with Preload: a
// keyed hit, a miss, an eviction, a store decode and a preloaded entry
// not yet checked against a request graph each answer with dag.Read's
// fingerprint and sinks and the oracle's outputs, and the engine counts
// exactly one hit or miss per request.
func TestKeyedHitPathOnTheWire(t *testing.T) {
	var ks [4]keyedGraph
	for i := range ks {
		ks[i] = newKeyedGraph(t, int64(31+i))
	}
	a, b, c, d := ks[0], ks[1], ks[2], ks[3]
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{CacheSize: 2, Store: st})
	s := newKeyedServer(t, eng)
	s.step("a compiles", a, http.StatusOK, 0, 1, 0, 0)
	if !resident(t, eng, a) {
		t.Fatal("a compiled program is not answered by key")
	}
	s.step("a by key", a, http.StatusOK, 1, 0, 0, 0)
	s.step("b compiles", b, http.StatusOK, 0, 1, 0, 0)
	s.step("c evicts a", c, http.StatusOK, 0, 1, 0, 1)
	s.step("d evicts b", d, http.StatusOK, 0, 1, 0, 1)
	if resident(t, eng, a) {
		t.Fatal("an evicted program is answered by key")
	}
	eng.Flush() // every compile is persisted
	s.step("a from the store", a, http.StatusOK, 0, 1, 1, 1)
	s.step("a by key after its decode", a, http.StatusOK, 1, 0, 0, 0)

	// Restart: the new engine preloads the first two artifacts of the
	// store's walk, which no request graph has checked yet.
	preloaded := map[dag.Fingerprint]bool{}
	st.Walk(func(_ string, a *artifact.Artifact, err error) bool {
		if err == nil {
			preloaded[a.Fingerprint] = true
		}
		return len(preloaded) < 2
	})
	eng = engine.New(engine.Options{CacheSize: 2, Store: st})
	if n, err := eng.Preload(); err != nil || n != 2 || len(preloaded) != 2 {
		t.Fatalf("preload: %d artifacts, %v; want 2", n, err)
	}
	s = newKeyedServer(t, eng)
	for _, k := range ks {
		if !preloaded[k.fp] {
			continue
		}
		if resident(t, eng, k) {
			t.Fatalf("preloaded %s is answered by key before a graph checked it", k.fp.Short())
		}
		// The request builds its graph, and Compile's hit path checks
		// the program against it.
		s.step("preloaded, checked", k, http.StatusOK, 1, 0, 0, 0)
		s.step("preloaded, by key", k, http.StatusOK, 1, 0, 0, 0)
	}
	for _, k := range ks {
		if !preloaded[k.fp] {
			s.step("store decode after restart", k, http.StatusOK, 0, 1, 1, 1)
			s.step("by key after restart", k, http.StatusOK, 1, 0, 0, 0)
		}
	}
}

// TestPoisonedPreloadNeverAnsweredByKey: a preloaded artifact that does
// not serve its graph (a remap one entry short) is never answered by
// key. The request that meets it takes Compile's eviction path, a 422
// that evicts it from cache and store, and the retry recompiles.
func TestPoisonedPreloadNeverAnsweredByKey(t *testing.T) {
	k := newKeyedGraph(t, 41)
	g, err := dag.Read(strings.NewReader(k.text), "poison")
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Remap = c.Remap[:len(c.Remap)-1]
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&artifact.Artifact{Fingerprint: k.fp, Options: compiler.Options{}, Compiled: c}); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{CacheSize: 2, Store: st})
	if n, err := eng.Preload(); err != nil || n != 1 {
		t.Fatalf("preload: %d artifacts, %v; want 1", n, err)
	}
	s := newKeyedServer(t, eng)
	if resident(t, eng, k) {
		t.Fatal("a poisoned preloaded program is answered by key")
	}
	s.step("poisoned entry evicted", k, http.StatusUnprocessableEntity, 1, 0, 0, 0)
	if resident(t, eng, k) {
		t.Fatal("an evicted poisoned program is answered by key")
	}
	if st := eng.Stats(); st.StoreErrors != 1 || st.Cached != 0 {
		t.Errorf("store errors %d, cached %d; want 1 and 0", st.StoreErrors, st.Cached)
	}
	s.step("retry recompiles", k, http.StatusOK, 0, 1, 0, 0)
	s.step("recompiled by key", k, http.StatusOK, 1, 0, 0, 0)
}
