package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"dpuv2/internal/artifact"
	"dpuv2/internal/engine"
	"dpuv2/internal/serve"
)

// No test here asserts a timing: the suite checks that the benchmark is
// deterministic, that its oracle and statistics are right, and that a
// small pass of every workload produces exactly the metrics
// BENCHMARK.json promises.

func fingerprints(w *workload) []string {
	seen := map[string]bool{}
	for _, r := range w.reqs {
		seen[r.graph.g.Fingerprint().String()] = true
	}
	var out []string
	for fp := range seen {
		out = append(out, fp)
	}
	sort.Strings(out)
	return out
}

func bodies(w *workload) [][]byte {
	var out [][]byte
	for _, r := range w.reqs {
		out = append(out, r.body)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fingerprints(a), fingerprints(b)) || !reflect.DeepEqual(bodies(a), bodies(b)) {
			t.Errorf("%s: seed 1 twice gave different fingerprints or request bodies", name)
		}
		if reflect.DeepEqual(bodies(a), bodies(c)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request bodies", name)
		}
		// Generated populations are reweighted from the seed, so a new
		// seed is a set of graphs the stack has never seen; the Table I
		// suites are fixed graphs and differ in their vectors only.
		generated := name == "serve_hot" || name == "serve_churn"
		if same := reflect.DeepEqual(fingerprints(a), fingerprints(c)); same == generated {
			t.Errorf("%s: seeds 1 and 2 share fingerprints: %v, want %v", name, same, !generated)
		}
		// What the seed must not move: sizes and structure, which the
		// exact-count metrics are made of.
		if len(a.reqs) != len(c.reqs) || len(a.jobs) != len(c.jobs) {
			t.Errorf("%s: seeds 1 and 2 differ in request or job count", name)
		}
		for i := range a.jobs {
			if ga, gc := a.jobs[i].graph, c.jobs[i].graph; ga != nil && ga.g.NumNodes() != gc.g.NumNodes() {
				t.Errorf("%s: job %d has %d nodes at seed 1, %d at seed 2", name, i, ga.g.NumNodes(), gc.g.NumNodes())
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9, 100000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs[:10])
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 = quartiles(xs[:5]); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(xs[:10]); got != 1 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

func TestSpansSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "c", Start: 50, End: 60, Parent: 2},
	}}
	want := map[string][]float64{"request": {20}, "a": {30}, "b": {40}, "c": {10}}
	if got := r.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var off *recorder
	off.end(off.begin("x", -1, 0)) // spans off must be a no-op, not a panic
}

func TestGCPause(t *testing.T) {
	ring := make([]uint64, 256)
	for i := range ring {
		ring[i] = 1000
	}
	// Cycles 8, 9 and 10 ran between the samples: their pauses sit at
	// indexes 7, 8 and 9 of the ring.
	ring[7], ring[8], ring[9] = 1, 2, 3
	if got := gcPause(memSample{numGC: 7}, memSample{numGC: 10, pauseNs: ring}); got != 6 {
		t.Errorf("gcPause = %d, want 6", got)
	}
	// More cycles than the ring holds: its mean stands in for the rest.
	for i := range ring {
		ring[i] = 2
	}
	if got := gcPause(memSample{}, memSample{numGC: 1000, pauseNs: ring}); got != 2000 {
		t.Errorf("gcPause over 1000 cycles = %d, want 2000", got)
	}
}

func TestParseMemStats(t *testing.T) {
	profile := "heap profile: 0: 0 [0: 0] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 5\n# TotalAlloc = 123456\n" +
		"# Mallocs = 77\n# PauseNs = [10 20 0]\n# NumGC = 2\n# MaxRSS = 9\n"
	m, err := parseMemStats([]byte(profile))
	if err != nil {
		t.Fatal(err)
	}
	want := memSample{totalAlloc: 123456, mallocs: 77, numGC: 2, pauseNs: []uint64{10, 20, 0}}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("parseMemStats = %+v, want %+v", m, want)
	}
	if _, err := parseMemStats([]byte("# TotalAlloc = 1\n")); err == nil {
		t.Error("a profile without the MemStats trailer must be an error")
	}
}

// inProcess is environment.start without a child process: the same
// handler tree and pprof listener dpu-serve mounts, on httptest servers.
func inProcess(_ context.Context, w *workload, storeDir string) (*server, error) {
	var opts engine.Options
	if w.store {
		st, err := artifact.Open(storeDir)
		if err != nil {
			return nil, err
		}
		opts = engine.Options{CacheSize: replayCache, Store: st}
	}
	eng := engine.New(opts)
	srv := serve.New(eng, serve.Options{})
	front := httptest.NewServer(srv.Handler())
	debug := httptest.NewServer(serve.NewDebugServer("").Handler)
	return &server{base: front.URL, debug: debug.URL, pid: os.Getpid(), stop: func() error {
		srv.Drain()
		eng.Flush()
		front.Close()
		debug.Close()
		return nil
	}}, nil
}

func TestOracleCatchesFlippedBit(t *testing.T) {
	w, err := buildWorkload("serve_hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := inProcess(context.Background(), w, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	r := &w.reqs[0]
	var ph phase
	newDriver(w, srv, 1).one(context.Background(), r, &ph)
	if ph.Failed != 0 || len(ph.latMS) != 1 {
		t.Fatalf("a correct answer was counted as failed: %v", ph.Failures)
	}

	good, err := json.Marshal(serve.ExecuteResponse{Results: []serve.ExecuteResult{{Outputs: r.want[0], Cycles: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if cycles, err := checkResponse(good, r); err != nil || cycles != 7 {
		t.Fatalf("checkResponse(reference answer) = %d, %v", cycles, err)
	}
	flipped := append([]float64(nil), r.want[0]...)
	flipped[0] = math.Float64frombits(math.Float64bits(flipped[0]) ^ 1) // lowest mantissa bit
	bad, err := json.Marshal(serve.ExecuteResponse{Results: []serve.ExecuteResult{{Outputs: flipped, Cycles: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkResponse(bad, r); err == nil {
		t.Error("the oracle accepted an output with a flipped mantissa bit")
	}
	for name, body := range map[string][]byte{
		"per-item error": []byte(`{"results":[{"error":"non-finite output +Inf (overflow?)"}]}`),
		"missing result": []byte(`{"results":[]}`),
		"not JSON":       []byte(`<html>`),
	} {
		if _, err := checkResponse(body, r); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSmokeMatchesBenchmarkJSON runs a 20-operation pass of all four
// workloads against in-process servers, both halves, and checks that
// what comes out is exactly what BENCHMARK.json lists.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("BENCHMARK.json: command %v, paths %v", file.Command, file.Paths)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the endToEnd table:\n%v\n%v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks BENCHMARK.json's limits", d)
		}
		seen[d.Name] = true
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(workloadNames))
	}

	cfg := config{seed: 1, trace: -1, opsCap: 20, setups: 1}
	env := newEnvironment(t.TempDir())
	env.start = inProcess
	for i, wl := range file.Workloads {
		if wl.Name != workloadNames[i] || wl.Why != workloadWhy[wl.Name] || len(wl.Why) > 200 {
			t.Errorf("BENCHMARK.json workload %d is %q (why: %d chars), want %q with the workloadWhy text", i, wl.Name, len(wl.Why), workloadNames[i])
		}
		r, err := runWorkload(context.Background(), env, cfg, wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 20 {
			t.Fatalf("%s: correct %v, attempted %d, failed %d: %v", wl.Name, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		if len(r.spans) == 0 {
			t.Errorf("%s: the traced replay recorded no spans", wl.Name)
		}
		for _, part := range []struct {
			defs []metricDef
			got  map[string]float64
		}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
			if len(part.got) != len(part.defs) {
				t.Errorf("%s: %d metrics reported, %d defined", wl.Name, len(part.got), len(part.defs))
			}
			for _, d := range part.defs {
				if v, ok := part.got[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (reported: %v)", wl.Name, d.Name, v, ok)
				}
			}
		}
		for _, d := range endToEnd {
			if r.EndToEnd[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, d.Name, r.EndToEnd[d.Name])
			}
		}
		s := summarize(r, 0)
		if len(s.Metrics) != len(endToEnd) {
			t.Errorf("%s: -trace 0 prints %d metrics, want the %d end-to-end ones", wl.Name, len(s.Metrics), len(endToEnd))
		}
		if s = summarize(r, 1); len(s.Metrics) != len(perLayer) {
			t.Errorf("%s: -trace 1 prints %d metrics, want the %d per-layer ones", wl.Name, len(s.Metrics), len(perLayer))
		}
	}
}

func TestSpreadAgainstBound(t *testing.T) {
	run := func(rps float64) []*result {
		return []*result{{Workload: "serve_hot", EndToEnd: map[string]float64{"throughput_rps": rps}}}
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	steady := [][]*result{run(1000), run(1001), run(1002), run(1003), run(1004)}
	if !printSpread(devnull, steady) {
		t.Error("a 0.3% spread was reported as over the bound")
	}
	noisy := [][]*result{run(1000), run(1200), run(1400), run(1600), run(1800)}
	if printSpread(devnull, noisy) {
		t.Error("a 43% spread was reported as within the bound")
	}
}
