package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/pc"
	"dpuv2/internal/sched"
	"dpuv2/internal/verify"
)

// warmGraph is the fig.-scale PC serving workload (the same mid-size
// circuit the engine benchmarks use), rendered to the node-list text a
// client would POST, so the warm-start path is exercised with the exact
// fingerprint a request produces.
func warmGraph(t testing.TB) (*dag.Graph, string, []float64) {
	t.Helper()
	g := pc.Build(pc.Suite()[1], 0.5)
	var buf bytes.Buffer
	if err := dag.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Re-read: the graph a request carries is the parsed form of the
	// text, and its fingerprint is what the serving engine keys on.
	rg, err := dag.Read(strings.NewReader(buf.String()), "request")
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, len(rg.Inputs()))
	for i := range inputs {
		inputs[i] = 0.5
	}
	return rg, buf.String(), inputs
}

// populateStore compiles the workload once and persists it — the
// offline `dpu-compile` step of the deployment story.
func populateStore(t testing.TB, st *artifact.Store, g *dag.Graph, cfg arch.Config) *compiler.Compiled {
	t.Helper()
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: compiler.Options{}, Compiled: c}
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeWarmStartNoCompileOnHotPath is the acceptance test for the
// warm-start flow: with a preloaded artifact store, the first request a
// restarted server sees is answered without a single compilation —
// engine compile count 0, pure cache hit.
func TestServeWarmStartNoCompileOnHotPath(t *testing.T) {
	g, text, inputs := warmGraph(t)
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := populateStore(t, st, g, arch.MinEDP())

	// "Restart": a fresh engine + server over the artifact directory.
	eng := engine.New(engine.Options{Store: st})
	if n, err := eng.Preload(); err != nil || n != 1 {
		t.Fatalf("preload: %d artifacts, err %v", n, err)
	}
	srv := New(eng, Options{Sched: sched.Options{MaxBatch: 8}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	body, _ := json.Marshal(ExecuteRequest{Graph: text, Inputs: [][]float64{inputs}})
	resp, err := http.Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request after warm start: status %d", resp.StatusCode)
	}
	var out ExecuteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" {
		t.Fatalf("results: %+v", out.Results)
	}
	// Bit-exact against the reference evaluator on the binarized graph
	// the program executes (the k-ary request graph's sinks map through
	// Remap; evaluating the k-ary form would differ in association
	// order, i.e. in final ulps).
	want, err := dag.Eval(c.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sink := range g.Outputs() {
		if got := out.Results[0].Outputs[i]; got != want[c.Remap[sink]] {
			t.Errorf("sink %d: warm-started output %v, reference %v", sink, got, want[c.Remap[sink]])
		}
	}

	s := eng.Stats()
	if s.Misses != 0 {
		t.Errorf("the hot path compiled: misses = %d, want 0", s.Misses)
	}
	if s.Hits == 0 {
		t.Error("no cache hit recorded for the warm-started program")
	}
	if s.Preloaded != 1 {
		t.Errorf("preloaded = %d, want 1", s.Preloaded)
	}
}

// TestServeClientOptionsCannotDamageStore: the options a client sends
// are a cache key and a store address, so no value of them may make the
// async persist fail and raise StoreErrors, the damaged-store alarm. A
// partition size the artifact format cannot carry is refused at compile
// (422); a key the options no longer have is ignored, so the request
// shares the bare request's cache entry.
func TestServeClientOptionsCannotDamageStore(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Store: st})
	t.Cleanup(eng.Flush) // runs before the TempDir is removed
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Drain)
	post := func(options string) int {
		t.Helper()
		body := `{"graph":"input\ninput\nadd 0 1\nconst 3\nmul 2 3\n","inputs":[[2,5]]` + options + `}`
		resp, err := http.Post(ts.URL+"/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, options := range []string{``, `,"options":{"Window":2097152}`} {
		if code := post(options); code != http.StatusOK {
			t.Fatalf("options %q: status %d, want 200", options, code)
		}
	}
	eng.Flush()
	if s := eng.Stats(); s.Misses != 1 {
		t.Errorf("a bare request and one with an unknown option key compiled %d times, want once", s.Misses)
	}
	if code := post(`,"options":{"PartitionSize":-1}`); code != http.StatusUnprocessableEntity {
		t.Errorf("PartitionSize -1: status %d, want 422", code)
	}
	eng.Flush()
	if s := eng.Stats(); s.StoreErrors != 0 {
		t.Errorf("client options raised StoreErrors to %d", s.StoreErrors)
	}
}

// TestWarmStartDecodeFasterThanCompile pins the acceptance ratio:
// rehydrating the fig.-scale PC workload from the store must be at
// least 5x faster than compiling it cold — otherwise a persistent
// store would not be pulling its weight and the PR's premise fails.
func TestWarmStartDecodeFasterThanCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-time measurement")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the compile/decode ratio")
	}
	g, _, _ := warmGraph(t)
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	populateStore(t, st, g, arch.MinEDP())
	key := artifact.KeyFor(g.Fingerprint(), arch.MinEDP(), compiler.Options{})

	// The best of each side over 40 interleaved rounds, alternating
	// which side runs first: a burst of load from elsewhere on the box
	// then slows samples on both sides, not only the one it lands on,
	// and each side has enough samples for its best to be a quiet one.
	sides := [2]func(){
		func() {
			if _, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{}); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := st.Get(key); err != nil {
				t.Fatal(err)
			}
		},
	}
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for round := range 40 {
		for i := range 2 {
			side := (i + round) % 2
			start := time.Now()
			sides[side]()
			best[side] = min(best[side], time.Since(start))
		}
	}
	compile, decode := best[0], best[1]
	t.Logf("cold compile %v, store decode %v (%.1fx)", compile, decode, float64(compile)/float64(decode))
	if decode*5 > compile {
		t.Errorf("decode-from-store (%v) is not ≥5x faster than a cold compile (%v)", decode, compile)
	}
}

// BenchmarkServeWarmStart quantifies the artifact story on the
// fig.-scale PC workload:
//
//	first-request     — full HTTP request against a freshly warm-started
//	                    server (preload untimed); the engine never
//	                    compiles (asserted).
//	decode-from-store — store lookup + full decode alone.
//	serving-decode    — store lookup + the serving decode a miss on an
//	                    already verified payload takes (no program tail).
//	verify-decoded    — the static verifier over the decoded program:
//	                    what the engine's trust-boundary gate adds the
//	                    ONE time it verifies a payload. The engine
//	                    memoizes verification per payload digest
//	                    (verifiedDigests), so this cost is paid once per
//	                    content per process, not per request — amortized
//	                    it is well under the "<10% of decode" budget, and
//	                    even unamortized it is the same order as a single
//	                    decode.
//	cold-compile      — what the same miss costs without a store.
func BenchmarkServeWarmStart(b *testing.B) {
	g, text, inputs := warmGraph(b)
	dir := b.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	populateStore(b, st, g, arch.MinEDP())
	key := artifact.KeyFor(g.Fingerprint(), arch.MinEDP(), compiler.Options{})
	body, _ := json.Marshal(ExecuteRequest{Graph: text, Inputs: [][]float64{inputs}})

	b.Run("first-request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := engine.New(engine.Options{Store: st})
			if n, err := eng.Preload(); err != nil || n != 1 {
				b.Fatalf("preload: %d, %v", n, err)
			}
			srv := New(eng, Options{Sched: sched.Options{MaxBatch: 8}})
			b.StartTimer()

			req := httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)

			b.StopTimer()
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
			if s := eng.Stats(); s.Misses != 0 {
				b.Fatalf("first request compiled: misses = %d", s.Misses)
			}
			srv.Drain()
			b.StartTimer()
		}
	})
	b.Run("decode-from-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Get(key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serving-decode", func(b *testing.B) {
		verified := func(artifact.Digest) bool { return true }
		for i := 0; i < b.N; i++ {
			if a, err := st.GetServing(key, verified); err != nil || !a.Serving() {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify-decoded", func(b *testing.B) {
		a, err := st.Get(key)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if fs := verify.Compiled(a.Compiled); verify.HasErrors(fs) {
				b.Fatalf("store artifact fails verification: %s", verify.Summary(fs))
			}
		}
	})
	b.Run("cold-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
