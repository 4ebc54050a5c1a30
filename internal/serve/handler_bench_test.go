package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpuv2/internal/artifact"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/pc"
	"dpuv2/internal/suite"
)

// handlerBodies renders one /execute body per graph, each carrying
// vectors input vectors uniform in [0,1).
func handlerBodies(b testing.TB, graphs []*dag.Graph, vectors int) [][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, len(graphs))
	for i, g := range graphs {
		var sb strings.Builder
		if err := dag.Write(&sb, g); err != nil {
			b.Fatal(err)
		}
		req := ExecuteRequest{Graph: sb.String(), Inputs: make([][]float64, vectors)}
		for v := range req.Inputs {
			req.Inputs[v] = make([]float64, len(g.Inputs()))
			for j := range req.Inputs[v] {
				req.Inputs[v][j] = rng.Float64()
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// circuits generates n probabilistic circuits of about nodes nodes from
// structural seeds base, base+1, ….
func circuits(n, nodes int, base int64) []*dag.Graph {
	gs := make([]*dag.Graph, n)
	for i := range gs {
		gs[i] = pc.Generate(pc.Config{Vars: 8, TargetNodes: nodes, TargetDepth: 12, SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: base + int64(i)})
	}
	return gs
}

// BenchmarkHandler drives the benchmark workloads' request shapes
// in process through Server.Handler(), one request per iteration,
// cycling the bodies in order after one warm-up pass:
//
//	hot   — 4 circuits of 64 nodes, 1 vector: a compile-cache hit and a
//	        parse memo hit, so the handler's fixed cost is the bill.
//	batch — tretail at scale 0.25, 256 vectors: decoding floats and the
//	        functional evaluator dominate.
//	churn — 32 circuits of 480 nodes against an 8-entry cache with an
//	        artifact store: the reuse distance is 4× the cache, so every
//	        request is an engine miss served by a store decode.
//
// Its CPU profiles (-cpuprofile) are the serving shapes a profile-guided
// build of dpu-serve starts from.
func BenchmarkHandler(b *testing.B) {
	run := func(b *testing.B, opts engine.Options, bodies [][]byte) *engine.Engine {
		eng := engine.New(opts)
		s := New(eng, Options{})
		defer s.Drain()
		h := s.Handler()
		post := func(body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		for _, body := range bodies {
			post(body)
		}
		eng.Flush()
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			post(bodies[i%len(bodies)])
			i++
		}
		return eng
	}
	b.Run("hot", func(b *testing.B) {
		eng := run(b, engine.Options{}, handlerBodies(b, circuits(4, 64, 100), 1))
		if st := eng.Stats(); st.Misses != 4 {
			b.Errorf("%d engine misses, want 4", st.Misses)
		}
	})
	b.Run("batch", func(b *testing.B) {
		g, err := suite.Build("tretail", 0.25)
		if err != nil {
			b.Fatal(err)
		}
		run(b, engine.Options{}, handlerBodies(b, []*dag.Graph{g}, 256))
	})
	b.Run("churn", func(b *testing.B) {
		st, err := artifact.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		eng := run(b, engine.Options{CacheSize: 8, Store: st}, handlerBodies(b, circuits(32, 480, 1000), 1))
		if st := eng.Stats(); st.Hits != 0 {
			b.Errorf("%d engine hits, want every request a miss", st.Hits)
		}
	})
}
