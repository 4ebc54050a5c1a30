package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/metrics"
	"dpuv2/internal/sched"
)

func postExecute(t *testing.T, srv *httptest.Server, req ExecuteRequest) (*http.Response, ExecuteResponse) {
	t.Helper()
	resp, out, err := post(srv, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// post is postExecute returning its error, for use off the test's
// goroutine.
func post(srv *httptest.Server, req ExecuteRequest) (*http.Response, ExecuteResponse, error) {
	var out ExecuteResponse
	body, err := json.Marshal(req)
	if err != nil {
		return nil, out, err
	}
	resp, err := http.Post(srv.URL+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, out, err
		}
	}
	return resp, out, nil
}

// postAsync posts req on its own goroutine and delivers the reply on
// ch; a request that fails before it gets an HTTP status is delivered
// with status 0.
func postAsync(srv *httptest.Server, req ExecuteRequest, ch chan<- reply) {
	go func() {
		resp, out, err := post(srv, req)
		if err != nil {
			ch <- reply{}
			return
		}
		ch <- reply{resp.StatusCode, out}
	}()
}

// waitSched polls the scheduler's stats until cond holds — used only to
// wait for concurrent requests to reach their blocking point.
func waitSched(t *testing.T, s *Server, cond func(sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(s.Scheduler().Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out; sched stats = %+v", s.Scheduler().Stats())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// gatedBackend holds every batch execution until the test opens the
// gate, so the requests it holds keep their queue slots — the
// deterministic stand-in for "a request is executing" that the admission
// and drain tests need.
type gatedBackend struct {
	eng      *engine.Engine
	once     sync.Once
	started  chan struct{} // closed when the first execution reaches the gate
	openOnce sync.Once
	gate     chan struct{} // executions block until it is closed
}

func (b *gatedBackend) open() { b.openOnce.Do(func() { close(b.gate) }) }

func (b *gatedBackend) Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error) {
	return b.eng.Compile(g, cfg, opts)
}

func (b *gatedBackend) ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error) {
	b.once.Do(func() { close(b.started) })
	<-b.gate
	b.eng.ExecuteBatchInto(c, batches, outs, cycles, errs)
}

// newGatedServer is newTestServer with the server's scheduler swapped
// for one dispatching onto a gated backend. Cleanup opens the gate if
// the test has not, so a failing test cannot wedge the drain.
func newGatedServer(t *testing.T) (*Server, *httptest.Server, *gatedBackend) {
	t.Helper()
	eng := engine.New(engine.Options{})
	gb := &gatedBackend{eng: eng, started: make(chan struct{}), gate: make(chan struct{})}
	s := New(eng, Options{})
	s.sch = sched.New(gb, sched.Options{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(s.Drain)
	t.Cleanup(gb.open) // cleanups run last-in first-out: gate, drain, close
	return s, srv, gb
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(engine.New(engine.Options{}), opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(s.Drain)
	return s, srv
}

func TestServeExecuteEndToEnd(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		s, srv := newTestServer(t, Options{})

		// (x0 + x1) * 3 over two input vectors, plus one malformed vector.
		req := ExecuteRequest{
			Graph:  "input\ninput\nadd 0 1\nconst 3\nmul 2 3\n",
			Inputs: [][]float64{{2, 5}, {1, 1}, {7}},
		}
		resp, out := postExecute(t, srv, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if out.Fingerprint == "" {
			t.Error("missing fingerprint")
		}
		if !out.Batched {
			t.Error("batched = false: every request is served through the scheduler")
		}
		if len(out.Results) != 3 {
			t.Fatalf("got %d results, want 3", len(out.Results))
		}
		for i, want := range []float64{21, 6} {
			r := out.Results[i]
			if r.Error != "" {
				t.Fatalf("result %d errored: %s", i, r.Error)
			}
			if len(r.Outputs) != 1 || r.Outputs[0] != want {
				t.Errorf("result %d = %v, want [%v]", i, r.Outputs, want)
			}
			if r.Cycles <= 0 {
				t.Errorf("result %d missing cycle count", i)
			}
		}
		if out.Results[2].Error == "" {
			t.Error("malformed input vector did not surface an error")
		}

		// Same graph again: the engine must report a cache hit.
		if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("second request status = %d", resp.StatusCode)
		}
		st := s.Stats()
		if st.Engine.Misses != 1 || st.Engine.Hits < 1 {
			t.Errorf("engine stats = %+v, want one miss and at least one hit", st.Engine)
		}
		if st.Sched.Completed != 4 || st.Sched.Failed != 2 {
			t.Errorf("sched stats = %+v, want 4 completed / 2 failed", st.Sched)
		}
	})
}

// TestServeKAryGraphSinkIDs pins the sink-id contract: the response
// reports sinks as ids of the graph the client submitted, even when
// binarization renumbers nodes internally.
func TestServeKAryGraphSinkIDs(t *testing.T) {
	_, srv := newTestServer(t, Options{})

	// 3-ary add: node 3 in the client's graph, renumbered by Binarize.
	req := ExecuteRequest{
		Graph:  "input\ninput\ninput\nadd 0 1 2\n",
		Inputs: [][]float64{{1, 2, 4}},
	}
	resp, out := postExecute(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Sinks) != 1 || out.Sinks[0] != 3 {
		t.Errorf("sinks = %v, want [3] (ids of the submitted graph)", out.Sinks)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" {
		t.Fatalf("results = %+v", out.Results)
	}
	if got := out.Results[0].Outputs; len(got) != 1 || got[0] != 7 {
		t.Errorf("outputs = %v, want [7]", got)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Options{})

	resp, err := http.Post(srv.URL+"/execute", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}

	// Truncated body: valid prefix of a JSON object, then EOF.
	resp, err = http.Post(srv.URL+"/execute", "application/json", bytes.NewReader([]byte(`{"graph": "input`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status = %d, want 400", resp.StatusCode)
	}

	// Bytes after the object: json.Unmarshal, and so the gateway, rejects
	// the body, and the backend must agree.
	resp, err = http.Post(srv.URL+"/execute", "application/json",
		strings.NewReader(`{"graph":"input\ninput\nadd 0 1\n","inputs":[[1,2]]} x`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing bytes: status = %d, want 400", resp.StatusCode)
	}

	if resp, _ := postExecute(t, srv, ExecuteRequest{Graph: "bogus op\n"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed graph: status = %d, want 400", resp.StatusCode)
	}

	// A graph that fails compilation (B < 2^D) — with input vectors the
	// failure surfaces through the scheduler batch (sched.CompileError),
	// without them through the metadata fallback; both must 422.
	badCfg := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n"}
	badCfg.Config.D = 5
	badCfg.Config.B = 2
	badCfg.Config.R = 8
	if resp, _ := postExecute(t, srv, badCfg); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad config, no inputs: status = %d, want 422", resp.StatusCode)
	}
	badCfg.Inputs = [][]float64{{1, 2}, {3, 4}}
	if resp, _ := postExecute(t, srv, badCfg); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad config, batched inputs: status = %d, want 422", resp.StatusCode)
	}

	// A constructible but absurdly sized config must be rejected before
	// any machine is allocated.
	huge := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: [][]float64{{1, 2}}}
	huge.Config.D = 1
	huge.Config.B = 2
	huge.Config.R = 1 << 30
	if resp, _ := postExecute(t, srv, huge); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized config: status = %d, want 400", resp.StatusCode)
	}

	getResp, err := http.Get(srv.URL + "/execute")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /execute: status = %d, want 405", getResp.StatusCode)
	}

	hResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status = %d", hResp.StatusCode)
	}
}

// TestServeNonFiniteOutputsItemized: JSON cannot represent ±Inf/NaN, so
// an overflowing execution must come back as that vector's error — not
// as a truncated 200 killed by the response encoder — and be counted.
func TestServeNonFiniteOutputsItemized(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	req := ExecuteRequest{
		Graph:  "const 1e308\nconst 1e308\nmul 0 1\n",
		Inputs: [][]float64{{}, {}},
	}
	resp, out := postExecute(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(out.Results) != 2 || out.Results[0].Error == "" || out.Results[1].Error == "" {
		t.Errorf("overflow not itemized: %+v", out.Results)
	}
	if st := s.Stats().HTTP; st.NonFiniteOutputs != 2 || st.Errors != 0 {
		t.Errorf("non_finite_outputs/errors = %d/%d, want 2/0 (two vectors itemized inside a 200)",
			st.NonFiniteOutputs, st.Errors)
	}
}

// TestServeStageHistograms: every request observes each handler stage
// it reaches — a malformed body only decode, a bad graph decode and
// parse, a served request all three — on /stats and on /metrics.
func TestServeStageHistograms(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	for _, body := range []string{
		`{not json`,
		`{"graph":"bogus op\n"}`,
		`{"graph":"input\ninput\nadd 0 1\n","inputs":[[1,2]]}`,
	} {
		resp, err := http.Post(srv.URL+"/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	st := s.Stats().HTTP
	for _, c := range []struct {
		stage string
		sum   metrics.Summary
		hist  metrics.Snapshot
		want  uint64
	}{{"decode", st.Decode, st.DecodeHist, 3}, {"parse", st.Parse, st.ParseHist, 2}, {"encode", st.Encode, st.EncodeHist, 1}} {
		if c.hist.Count != c.want || c.sum.Count != c.want {
			t.Errorf("%s: histogram count %d, summary count %d, want %d", c.stage, c.hist.Count, c.sum.Count, c.want)
		}
	}
}

// TestZeroOptionsDefaults pins what a zero Options resolves to — the
// values dpu-serve runs with, since it sets none of them: a queue bound
// of 4096 vectors, chunks of 32, and unsolicited tracing at 1 in 64, the
// first sampled.
func TestZeroOptionsDefaults(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	if got := s.Scheduler().Stats().QueueLimit; got != 4096 {
		t.Errorf("queue limit = %d, want 4096", got)
	}
	// Before any request: each one consumes a sampling decision.
	var sampled []int
	for i := 0; i < 2*64; i++ {
		if s.Tracer().Sample() {
			sampled = append(sampled, i)
		}
	}
	if want := []int{0, 64}; !reflect.DeepEqual(sampled, want) {
		t.Errorf("sampled calls %v of %d, want %v", sampled, 2*64, want)
	}

	req := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: make([][]float64, 33)}
	for i := range req.Inputs {
		req.Inputs[i] = []float64{float64(i), 1}
	}
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("33 vectors: status = %d, want 200", resp.StatusCode)
	}
	if st := s.Scheduler().Stats(); st.Batches != 2 || st.BatchSize.Max != 32 {
		t.Errorf("33 vectors ran as %d chunks of at most %d, want 2 of at most 32", st.Batches, st.BatchSize.Max)
	}
}

// TestServeOversizedBatch413 checks the per-request bound of 1024 input
// vectors: one more is turned away with 413, the bound itself runs.
func TestServeOversizedBatch413(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	req := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: make([][]float64, 1025)}
	for i := range req.Inputs {
		req.Inputs[i] = []float64{1, 2}
	}
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("1025 vectors: status = %d, want 413", resp.StatusCode)
	}
	// At the bound is fine.
	req.Inputs = req.Inputs[:1024]
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusOK {
		t.Errorf("1024 vectors: status = %d, want 200", resp.StatusCode)
	}
}

// holdRequests posts one request per size, of that many vectors each,
// and returns once the gated backend holds all of them in the
// scheduler's queue. Vector i of a request is {i, 1}, so its output is
// i+1. The replies arrive on the returned channel after the gate opens.
func holdRequests(t *testing.T, s *Server, srv *httptest.Server, sizes ...int) <-chan reply {
	t.Helper()
	held := make(chan reply, len(sizes))
	total := 0
	for _, n := range sizes {
		req := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: make([][]float64, n)}
		for i := range req.Inputs {
			req.Inputs[i] = []float64{float64(i), 1}
		}
		total += n
		postAsync(srv, req, held)
	}
	waitSched(t, s, func(st sched.Stats) bool { return st.QueueDepth == int64(total) })
	return held
}

// checkHeld fails t unless each of the n requests held by holdRequests
// answered 200 with every vector's output.
func checkHeld(t *testing.T, held <-chan reply, n int) {
	t.Helper()
	for range n {
		got := <-held
		if got.status != http.StatusOK {
			t.Fatalf("held request status = %d, want 200", got.status)
		}
		for i, r := range got.out.Results {
			if r.Error != "" || len(r.Outputs) != 1 || r.Outputs[0] != float64(i+1) {
				t.Fatalf("held result %d = %+v, want [%d]", i, r, i+1)
			}
		}
	}
}

// TestServeQueueFull429 fills the scheduler's 4096-vector queue with four
// 1024-vector requests held inside the gated backend, then checks that
// the next request is shed with 429 and that the held ones complete once
// the gate opens.
func TestServeQueueFull429(t *testing.T) {
	s, srv, gb := newGatedServer(t)
	held := holdRequests(t, s, srv, 1024, 1024, 1024, 1024)

	// Queue is full: the whole next request is turned away.
	req := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: [][]float64{{1, 2}}}
	resp, _ := postExecute(t, srv, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if st := s.Scheduler().Stats(); st.Rejected != 1 || st.QueueLimit != 4096 {
		t.Errorf("rejected %d against a limit of %d, want 1 against 4096", st.Rejected, st.QueueLimit)
	}

	gb.open()
	checkHeld(t, held, 4)
}

// TestServePartialAdmission: a request straddling the queue bound keeps
// its admitted vectors and itemizes ErrQueueFull on the overflow. Held
// requests take 4094 of the 4096 slots, so two of its three vectors fit.
func TestServePartialAdmission(t *testing.T) {
	s, srv, gb := newGatedServer(t)
	held := holdRequests(t, s, srv, 1024, 1024, 1024, 1022)

	req := ExecuteRequest{
		Graph:  "input\ninput\nadd 0 1\n",
		Inputs: [][]float64{{1, 2}, {3, 4}, {5, 6}},
	}
	partial := make(chan reply, 1)
	postAsync(srv, req, partial)
	// Its admitted vectors are held at the gate too.
	waitSched(t, s, func(st sched.Stats) bool { return st.QueueDepth == 4096 && st.Rejected == 1 })
	gb.open()
	checkHeld(t, held, 4)

	got := <-partial
	if got.status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (partial admission)", got.status)
	}
	out := got.out
	if len(out.Results) != 3 {
		t.Fatalf("got %d results", len(out.Results))
	}
	for i, want := range []float64{3, 7} {
		if out.Results[i].Error != "" || out.Results[i].Outputs[0] != want {
			t.Errorf("result %d = %+v, want [%v]", i, out.Results[i], want)
		}
	}
	if out.Results[2].Error == "" {
		t.Error("overflow item did not itemize its rejection")
	}
	if st := s.Scheduler().Stats(); st.Submitted != 4096 || st.Rejected != 1 {
		t.Errorf("submitted/rejected = %d/%d, want 4096/1", st.Submitted, st.Rejected)
	}
}

// TestServeStatsSchemaRoundTrip locks the /stats wire format: the body
// must decode into StatsResponse with no unknown fields, carry the
// queue-depth / batch-size / latency extensions, and re-encode to the
// same JSON.
func TestServeStatsSchemaRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	req := ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: [][]float64{{1, 2}, {3, 4}}}
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status = %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	var st StatsResponse
	dec := json.NewDecoder(io.TeeReader(resp.Body, &buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("stats schema drifted from StatsResponse: %v", err)
	}
	// Round trip: re-encoding must reproduce the served JSON.
	reenc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(reenc, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats JSON does not round-trip:\nserved:   %s\nre-coded: %s", buf.Bytes(), reenc)
	}
	// The extensions the scheduler PR added must be live.
	if st.Sched.Completed != 2 {
		t.Errorf("sched.completed = %d, want 2", st.Sched.Completed)
	}
	if st.Sched.BatchSize.Count == 0 || st.Sched.BatchSize.Max == 0 {
		t.Errorf("batch-size histogram empty: %+v", st.Sched.BatchSize)
	}
	if st.HTTP.Requests != 1 {
		t.Errorf("http.requests = %d, want 1", st.HTTP.Requests)
	}
	l := st.HTTP.Latency
	if l.Count != 1 || l.P50 <= 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
		t.Errorf("latency quantiles inconsistent: %+v", l)
	}
	if st.Sched.QueueDepth != 0 || st.Sched.QueueLimit <= 0 {
		t.Errorf("queue depth/limit = %d/%d", st.Sched.QueueDepth, st.Sched.QueueLimit)
	}
	// The verifier-gate counters must be on the wire (zero here — this
	// server has no store, so nothing crossed a verify boundary).
	if !bytes.Contains(buf.Bytes(), []byte(`"Verified"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"VerifyRejects"`)) {
		t.Errorf("engine stats missing verifier counters: %s", buf.Bytes())
	}
}

// TestServeGracefulDrain: requests executing when the drain starts
// complete successfully; requests arriving after it are answered 503,
// and /healthz flips to 503 so load balancers stop routing here.
func TestServeGracefulDrain(t *testing.T) {
	s, srv, gb := newGatedServer(t)
	req := ExecuteRequest{Graph: "input\ninput\nmul 0 1\n", Inputs: [][]float64{{6, 7}}}

	inflight := make(chan reply, 2)
	post := func() {
		resp, out := postExecute(t, srv, req)
		inflight <- reply{resp.StatusCode, out}
	}
	go post()
	go post()
	// Both requests are held inside the backend, each on its own handler.
	waitSched(t, s, func(st sched.Stats) bool { return st.QueueDepth == 2 })

	drained := make(chan struct{})
	go func() {
		s.Drain() // blocks until both held requests are answered
		close(drained)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never started")
		}
		time.Sleep(50 * time.Microsecond)
	}

	// New work is rejected while the drain is still in progress.
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mid-drain execute: status = %d, want 503", resp.StatusCode)
	}
	hResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mid-drain healthz: status = %d, want 503", hResp.StatusCode)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with requests still held in the backend")
	default:
	}

	gb.open()
	<-drained
	for i := 0; i < 2; i++ {
		got := <-inflight
		if got.status != http.StatusOK {
			t.Fatalf("in-flight request during drain: status = %d, want 200", got.status)
		}
		if got.out.Results[0].Outputs[0] != 42 {
			t.Errorf("in-flight result = %+v, want [42]", got.out.Results[0])
		}
	}
	if resp, _ := postExecute(t, srv, req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain execute: status = %d, want 503", resp.StatusCode)
	}
}

type reply struct {
	status int
	out    ExecuteResponse
}
