package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
)

const tuneGraphText = "input\ninput\nadd 0 1\nconst 3\nmul 2 3\n"

// switchTuner flips every workload to the fixed tuned config.
type switchTuner struct {
	tuned arch.Config
	calls atomic.Int64
}

func (st *switchTuner) Tune(ctx context.Context, g *dag.Graph, def arch.Config, opts compiler.Options) (*artifact.Decision, error) {
	st.calls.Add(1)
	return &artifact.Decision{
		Fingerprint: g.Fingerprint(),
		Config:      st.tuned.Normalize(),
		Options:     opts.Normalized(),
		Score:       1,
		Provenance: artifact.Provenance{
			Metric: "latency", Default: def.Normalize(), DefaultScore: 2,
			Points: 2, GridSize: 2, TunedAtUnix: 1, Tuner: "test/1",
		},
	}, nil
}

func getStats(t *testing.T, srv *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeAutoTuneSwitch drives the full serving loop: the first
// request runs on the submitted (default) config while a background tune
// starts; after it completes, the same graph is served on the tuned
// config — visible in the response metadata, the tune stats section and
// the per-config pool map.
func TestServeAutoTuneSwitch(t *testing.T) {
	tuned := arch.MinEnergy()
	ft := &switchTuner{tuned: tuned}
	eng := engine.New(engine.Options{Tuner: ft})
	s := New(eng, Options{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(s.Drain)

	req := ExecuteRequest{Graph: tuneGraphText, Inputs: [][]float64{{2, 5}}}
	resp, out := postExecute(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	def := arch.MinEDP()
	if out.Config != def.String() {
		t.Fatalf("first request served on %q, want default %q", out.Config, def)
	}
	if out.Results[0].Outputs[0] != 21 {
		t.Fatalf("wrong result: %+v", out.Results[0])
	}

	eng.WaitTunes()
	resp, out = postExecute(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Config != tuned.String() {
		t.Fatalf("post-tune request served on %q, want tuned %q", out.Config, tuned)
	}
	if out.Results[0].Outputs[0] != 21 {
		t.Fatalf("tuned config changed the answer: %+v", out.Results[0])
	}

	st := getStats(t, srv)
	if !st.Tune.Enabled || st.Tune.Tunes != 1 || st.Tune.TunedHits < 1 || st.Tune.InFlight != 0 {
		t.Fatalf("tune stats: %+v", st.Tune)
	}
	if len(st.Tune.Workloads) != 1 || st.Tune.Workloads[0].Config != tuned.String() {
		t.Fatalf("tune workloads: %+v", st.Tune.Workloads)
	}
	// The engine's own counter agrees that traffic moved to the tuned
	// config.
	if st.Engine.TunedHits < 1 {
		t.Fatalf("engine tuned_hits = %d after a tuned request", st.Engine.TunedHits)
	}
}

// TestServeAutoTuneWarmRestart is the acceptance criterion end to end: a
// server restarted over a store holding a decision and its pre-compiled
// artifact answers its *first* request on the tuned config, with zero
// in-process tunes and zero compilations.
func TestServeAutoTuneWarmRestart(t *testing.T) {
	dir := t.TempDir()
	store1, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tuned := arch.MinEnergy()

	// "Offline tune": first server instance tunes and persists.
	ft := &switchTuner{tuned: tuned}
	eng1 := engine.New(engine.Options{Tuner: ft, Store: store1})
	s1 := New(eng1, Options{})
	srv1 := httptest.NewServer(s1.Handler())
	req := ExecuteRequest{Graph: tuneGraphText, Inputs: [][]float64{{2, 5}}}
	if resp, _ := postExecute(t, srv1, req); resp.StatusCode != http.StatusOK {
		t.Fatal("seed request failed")
	}
	eng1.WaitTunes()
	eng1.Flush()
	s1.Drain()
	srv1.Close()

	// Restart: fresh store handle, fresh engine, no tuner — decisions
	// come exclusively from disk.
	store2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(engine.Options{AutoTune: true, Store: store2})
	if _, err := eng2.Preload(); err != nil {
		t.Fatal(err)
	}
	s2 := New(eng2, Options{})
	srv2 := httptest.NewServer(s2.Handler())
	t.Cleanup(srv2.Close)
	t.Cleanup(s2.Drain)

	resp, out := postExecute(t, srv2, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Config != tuned.String() {
		t.Fatalf("restarted server's first request served on %q, want tuned %q", out.Config, tuned)
	}
	if out.Results[0].Outputs[0] != 21 {
		t.Fatalf("wrong result after restart: %+v", out.Results[0])
	}
	st := getStats(t, srv2)
	if st.Tune.Tunes != 0 || st.Tune.InFlight != 0 {
		t.Fatalf("restart tuned in-process: %+v", st.Tune)
	}
	if st.Tune.StoreTuned != 1 || st.Tune.TunedHits < 1 {
		t.Fatalf("restart did not serve from the stored decision: %+v", st.Tune)
	}
	if st.Engine.Misses != 0 {
		t.Fatalf("restarted server compiled on the hot path: %+v", st.Engine)
	}
}

// TestServeAutoTuneOutOfBoundsDecisionIgnored: the .dputune format
// admits data memories larger than the serving limit; a stored decision
// carrying one must not be served (it would let a hand-staged store
// file build machines the request path would have rejected with 400).
// Two layers defend this: production wiring installs CheckConfigBounds
// as the engine's DecisionGuard, which pins the decision at install
// time (no false tuned hits); and even on an unguarded engine, the
// handler itself refuses the resolved config and falls back to the
// client's.
func TestServeAutoTuneOutOfBoundsDecisionIgnored(t *testing.T) {
	g, err := dag.Read(strings.NewReader(tuneGraphText), "g")
	if err != nil {
		t.Fatal(err)
	}
	huge := arch.Config{D: 3, B: 64, R: 32, Output: arch.OutPerLayer, DataMemWords: 1 << 25, ClockMHz: 300}
	d := &artifact.Decision{
		Fingerprint: g.Fingerprint(),
		Config:      huge,
		Options:     compiler.Options{}.Normalized(),
		Score:       1,
		Provenance: artifact.Provenance{
			Metric: "latency", Default: arch.MinEDP(), DefaultScore: 2,
			Points: 1, GridSize: 1, TunedAtUnix: 1, Tuner: "test/1",
		},
	}
	for _, tc := range []struct {
		name  string
		guard func(arch.Config) error
	}{
		// nil = the engine's default guard (CheckMachineBounds): the
		// decision pins at install time. The permissive guard disables
		// it, leaving the handler's own bounds check as the last line.
		{"guarded engine", nil},
		{"handler fallback", func(arch.Config) error { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := artifact.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutDecision(d); err != nil {
				t.Fatal(err)
			}
			eng := engine.New(engine.Options{AutoTune: true, Store: st, DecisionGuard: tc.guard})
			t.Cleanup(eng.Flush) // the async artifact persist must land before TempDir is removed
			s := New(eng, Options{})
			srv := httptest.NewServer(s.Handler())
			t.Cleanup(srv.Close)
			t.Cleanup(s.Drain)

			resp, out := postExecute(t, srv, ExecuteRequest{Graph: tuneGraphText, Inputs: [][]float64{{2, 5}}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if out.Config != arch.MinEDP().String() {
				t.Fatalf("served on %q, want the client's config %q (oversized decision must be ignored)", out.Config, arch.MinEDP())
			}
			if out.Results[0].Outputs[0] != 21 {
				t.Fatalf("wrong result: %+v", out.Results[0])
			}
			if tc.guard == nil {
				// The default guard pins at install time: no tuned hit
				// is claimed for traffic actually served on the default.
				ts := getStats(t, srv)
				if ts.Tune.TunedHits != 0 {
					t.Fatalf("guarded engine counted %d tuned hits for default-served traffic", ts.Tune.TunedHits)
				}
				if ts.Tune.Decisions != 1 {
					t.Fatalf("rejected decision not pinned: %+v", ts.Tune)
				}
			}
		})
	}
}

// TestServeAutoTuneBatchKeyFollowsDecision: once a decision lands, a
// request's whole batch of vectors runs on the *tuned* config — one
// compile key, not a default/tuned split.
func TestServeAutoTuneBatchKeyFollowsDecision(t *testing.T) {
	tuned := arch.MinEnergy()
	ft := &switchTuner{tuned: tuned}
	eng := engine.New(engine.Options{Tuner: ft})
	s := New(eng, Options{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(s.Drain)

	req := ExecuteRequest{Graph: tuneGraphText, Inputs: [][]float64{{2, 5}, {1, 1}, {4, 4}, {0, 7}}}
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusOK {
		t.Fatal("seed request failed")
	}
	eng.WaitTunes()
	if resp, out := postExecute(t, srv, req); resp.StatusCode != http.StatusOK || out.Config != tuned.String() {
		t.Fatalf("tuned batch: status %d config %q", resp.StatusCode, out.Config)
	}
	// All four post-tune vectors ran as one batch on the tuned config.
	st := getStats(t, srv)
	if st.Engine.TunedHits < 1 {
		t.Fatalf("engine tuned_hits = %d after a tuned batch", st.Engine.TunedHits)
	}
	if ft.calls.Load() != 1 {
		t.Fatalf("tuner ran %d times", ft.calls.Load())
	}
}
