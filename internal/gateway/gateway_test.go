package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/metrics"
	"dpuv2/internal/metrics/promtest"
	"dpuv2/internal/pc"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

// testBackend is one real dpu-serve stack behind an httptest listener,
// with an /execute hit counter so routing tests can see where traffic
// landed.
type testBackend struct {
	eng      *engine.Engine
	srv      *serve.Server
	ts       *httptest.Server
	executes atomic.Int64
}

func newTestBackend(t *testing.T) *testBackend {
	t.Helper()
	b := &testBackend{}
	b.eng = engine.New(engine.Options{})
	b.srv = serve.New(b.eng, serve.Options{})
	inner := b.srv.Handler()
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/execute" {
			b.executes.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(b.ts.Close)
	t.Cleanup(b.srv.Drain)
	return b
}

// testGraphs renders n distinct random graphs (2 inputs each) with their
// fingerprints.
type testGraph struct {
	text string
	fp   dag.Fingerprint
}

func testGraphs(t *testing.T, n int) []testGraph {
	t.Helper()
	out := make([]testGraph, n)
	for i := range out {
		g := dag.RandomGraph(dag.RandomConfig{Inputs: 2, Interior: 8, MaxArgs: 2, MulFrac: 0.3, Seed: int64(100 + i)})
		var sb strings.Builder
		if err := dag.Write(&sb, g); err != nil {
			t.Fatal(err)
		}
		out[i] = testGraph{text: sb.String(), fp: g.Fingerprint()}
	}
	return out
}

// executeVia posts one vector for graph to url, with the traceparent
// header tp when non-empty.
func executeVia(t *testing.T, url, graph, tp string) (*serve.ExecuteResponse, int) {
	t.Helper()
	body, _ := json.Marshal(serve.ExecuteRequest{Graph: graph, Inputs: [][]float64{{1, 2}}})
	req, err := http.NewRequest(http.MethodPost, url+"/execute", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tp != "" {
		req.Header.Set(trace.Header, tp)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("execute via %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var out serve.ExecuteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func newTestGateway(t *testing.T, opts Options) *Gateway {
	t.Helper()
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 20 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	gw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw
}

// TestGatewayShardAffinity is the tier's core invariant end to end: the
// first copy of every request goes to its fingerprint's ring owner, so
// each backend compiles its own shard and the fleet compiles a graph a
// second time only where a hedge copy (hedging is on, as deployed)
// reached the other backend.
func TestGatewayShardAffinity(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	gw := newTestGateway(t, Options{Backends: []string{b1.ts.URL, b2.ts.URL}})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	graphs := testGraphs(t, 12)
	r := gw.ring.Load()
	owned := map[string]int64{}
	for _, g := range graphs {
		owned[r.Owners(ringKey(g.fp), 1)[0]]++
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for _, g := range graphs {
			id := trace.NewID()
			if out, status := executeVia(t, front.URL, g.text, trace.Traceparent(id, trace.NewSpanID())); status != http.StatusOK {
				t.Fatalf("status %d", status)
			} else if out.Fingerprint != g.fp.String() {
				t.Fatalf("fingerprint mismatch: %s != %s", out.Fingerprint, g.fp)
			}
			// Routing: the first copy went to the ring owner.
			rec := findTrace(gw.tracer.Traces(0, ""), id.String())
			if rec == nil {
				t.Fatalf("gateway retained no trace for %s", id)
			}
			if sp, owner := findStage(rec, "forward"), r.Owners(ringKey(g.fp), 1)[0]; sp == nil || sp.Attrs["backend"] != owner {
				t.Fatalf("forward span %+v, want backend %s (the ring owner)", sp, owner)
			}
		}
	}
	// Each backend compiled at least its shard; a hedge copy may have
	// compiled a graph on the other backend once more.
	s1, s2 := b1.eng.Stats(), b2.eng.Stats()
	hedges := gw.Stats(context.Background()).Gateway.Hedges
	if s1.Misses < owned[b1.ts.URL] || s2.Misses < owned[b2.ts.URL] || s1.Misses+s2.Misses > int64(len(graphs))+hedges {
		t.Errorf("misses %d/%d for shards of %d/%d graphs and %d hedges", s1.Misses, s2.Misses, owned[b1.ts.URL], owned[b2.ts.URL], hedges)
	}
	if b1.executes.Load() == 0 || b2.executes.Load() == 0 {
		t.Errorf("traffic not spread: backend hits %d / %d", b1.executes.Load(), b2.executes.Load())
	}
}

// TestGatewayDrainingBackendGetsNoNewRequests: when a backend starts
// draining (healthz 503), the health checker removes it from the ring
// and every request — including those for fingerprints it owned — is
// served by the survivor with no client-visible error.
func TestGatewayDrainingBackendGetsNoNewRequests(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	gw := newTestGateway(t, Options{Backends: []string{b1.ts.URL, b2.ts.URL}})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	graphs := testGraphs(t, 8)
	for _, g := range graphs {
		if _, status := executeVia(t, front.URL, g.text, ""); status != http.StatusOK {
			t.Fatalf("warmup status %d", status)
		}
	}

	b1.srv.Drain() // healthz flips to 503 "draining"
	deadline := time.Now().Add(5 * time.Second)
	for len(gw.ring.Load().addrs) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("health checker never removed the draining backend from the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := gw.ring.Load().addrs[0]; got != b2.ts.URL {
		t.Fatalf("ring kept %s, want survivor %s", got, b2.ts.URL)
	}

	before := b1.executes.Load()
	for round := 0; round < 3; round++ {
		for _, g := range graphs {
			if _, status := executeVia(t, front.URL, g.text, ""); status != http.StatusOK {
				t.Fatalf("post-drain request failed with %d — shard did not fail over", status)
			}
		}
	}
	if got := b1.executes.Load(); got != before {
		t.Errorf("draining backend received %d new /execute requests", got-before)
	}
	// Failed-over fingerprints now live on the survivor: the fleet total
	// grows only by b1's former shard, and every request succeeded.
	if s2 := b2.eng.Stats(); s2.Misses != int64(len(graphs)) {
		t.Errorf("survivor misses = %d, want the full population %d after failover", s2.Misses, len(graphs))
	}
}

// TestGatewayHedgeCancelsLoser: a slow shard owner gets hedged to the
// next ring owner after the hedge delay; the fast copy's response is
// relayed and the slow copy's request context is canceled — the loser
// must not keep burning a backend slot.
func TestGatewayHedgeCancelsLoser(t *testing.T) {
	slowCanceled := make(chan struct{}, 1)
	fastBody := []byte(`{"fingerprint":"hedge-fast","results":[]}`)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/execute" {
			fmt.Fprintln(w, "ok")
			return
		}
		// Drain the body as a real backend does (it decodes the JSON
		// before executing) — Go's http server only watches for client
		// disconnect, and thus cancels r.Context(), once the body is
		// consumed.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			slowCanceled <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/execute" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(fastBody)
	}))
	defer fast.Close()

	gw := newTestGateway(t, Options{
		Backends:       []string{slow.URL, fast.URL},
		HealthInterval: time.Hour, // membership frozen after the initial probe
	})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	// A graph whose shard owner is the SLOW backend, so the hedge is what
	// answers.
	r := gw.ring.Load()
	var victim testGraph
	for i, g := range testGraphs(t, 64) {
		if r.Owners(ringKey(g.fp), 1)[0] == slow.URL {
			victim = g
			break
		}
		if i == 63 {
			t.Fatal("no graph hashed to the slow backend in 64 tries")
		}
	}

	start := time.Now()
	out, status := executeVia(t, front.URL, victim.text, "")
	if status != http.StatusOK || out == nil {
		t.Fatalf("hedged request failed: status %d", status)
	}
	if out.Fingerprint != "hedge-fast" {
		t.Fatalf("response came from %q, want the hedge target", out.Fingerprint)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged request took %v — hedge never fired", elapsed)
	}
	select {
	case <-slowCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing attempt was never canceled")
	}
	st := gw.Stats(context.Background())
	if st.Gateway.Hedges != 1 || st.Gateway.HedgeWins != 1 {
		t.Errorf("hedges=%d hedge_wins=%d, want 1/1", st.Gateway.Hedges, st.Gateway.HedgeWins)
	}
}

// TestGatewayFailoverOnDeadBackend: a backend that dies between health
// probes (still on the ring) hard-fails the first attempt; the gateway
// immediately retries the next ring owner and the client sees a 200,
// never a 5xx.
func TestGatewayFailoverOnDeadBackend(t *testing.T) {
	dying, live := newTestBackend(t), newTestBackend(t)
	gw := newTestGateway(t, Options{
		Backends:       []string{dying.ts.URL, live.ts.URL},
		HealthInterval: time.Hour, // the checker must NOT save us
	})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	r := gw.ring.Load()
	var victim testGraph
	for i, g := range testGraphs(t, 64) {
		if r.Owners(ringKey(g.fp), 1)[0] == dying.ts.URL {
			victim = g
			break
		}
		if i == 63 {
			t.Fatal("no graph hashed to the dying backend in 64 tries")
		}
	}
	dying.ts.CloseClientConnections()
	dying.ts.Close()

	out, status := executeVia(t, front.URL, victim.text, "")
	if status != http.StatusOK || out == nil {
		t.Fatalf("failover request failed: status %d", status)
	}
	if out.Fingerprint != victim.fp.String() {
		t.Fatalf("wrong response fingerprint %s", out.Fingerprint)
	}
	if st := gw.Stats(context.Background()); st.Gateway.Failovers == 0 {
		t.Error("no failover counted")
	}
	if live.executes.Load() == 0 {
		t.Error("surviving backend never saw the request")
	}
}

// TestGatewayOverLimitResponse502: a backend answer longer than
// serve.MaxRequestBytes, streamed chunked as dpu-serve does or with its
// length declared, reaches the client as a 502 that Rejected counts —
// never as a truncated 200 — and is not retried on the next owner. The
// chunked case buffers 64 MiB in the gateway, so it does not run under
// the race detector.
func TestGatewayOverLimitResponse502(t *testing.T) {
	for _, declared := range []bool{false, true} {
		if !declared && raceEnabled {
			continue
		}
		big := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/execute" {
				fmt.Fprintln(w, "ok")
				return
			}
			io.Copy(io.Discard, r.Body)
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(serve.MaxRequestBytes+1))
			}
			chunk := bytes.Repeat([]byte(" "), 1<<20)
			for left := serve.MaxRequestBytes + 1; left > 0; left -= len(chunk) {
				if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
					return
				}
			}
		})
		b1, b2 := httptest.NewServer(big), httptest.NewServer(big)
		gw := newTestGateway(t, Options{Backends: []string{b1.URL, b2.URL}})
		front := httptest.NewServer(gw.Handler())

		body, _ := json.Marshal(serve.ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: [][]float64{{1, 2}}})
		resp, err := http.Post(front.URL+"/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("declared length %v: status %d with %d bytes, want 502", declared, resp.StatusCode, n)
		}
		if st := gw.Stats(context.Background()).Gateway; st.Rejected != 1 || st.Proxied != 0 || st.Failovers != 0 {
			t.Errorf("declared length %v: rejected %d, proxied %d, failovers %d; want 1, 0, 0", declared, st.Rejected, st.Proxied, st.Failovers)
		}
		front.Close()
		b1.Close()
		b2.Close()
	}
}

// TestGatewayRelaysDeclaredAnswerInOneBuffer: a backend answer with a
// declared Content-Length is read into one buffer of that size, so
// relaying a 16 MiB answer allocates less than 1.5 times its bytes in
// the whole process (growth by append cost about 4.5 times).
func TestGatewayRelaysDeclaredAnswerInOneBuffer(t *testing.T) {
	const size = 16 << 20
	answer := bytes.Repeat([]byte("0123456789abcdef"), size/16)
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/execute" {
			fmt.Fprintln(w, "ok")
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		w.Write(answer)
	}))
	defer big.Close()
	gw := newTestGateway(t, Options{Backends: []string{big.URL}})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	body, _ := json.Marshal(serve.ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: [][]float64{{1, 2}}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(front.URL+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusOK || n != size {
		t.Fatalf("status %d with %d bytes relayed, want 200 with %d", resp.StatusCode, n, size)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > size*3/2 {
		t.Errorf("relaying %d bytes allocated %d bytes", size, alloc)
	}
	t.Logf("relaying %d bytes allocated %.2f times as many", size, float64(alloc)/size)
}

// TestGatewayBytesPerHop bounds the bytes a serve_hot-shaped hop — a
// 64-node circuit, one vector — allocates in process: the gateway
// routes on the fingerprint its parse memo holds for the graph text,
// so it neither parses the text again nor builds a graph. The figure
// includes the test's request and recorder and a backend that answers
// from a canned buffer.
func TestGatewayBytesPerHop(t *testing.T) {
	answer := []byte(`{"fingerprint":"x","results":[{"outputs":[1]}]}`)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/execute" {
			fmt.Fprintln(w, "ok")
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		w.Write(answer)
	}))
	defer backend.Close()
	// New's first health pass is synchronous; no poll runs after it to
	// allocate inside the measurement.
	gw := newTestGateway(t, Options{Backends: []string{backend.URL}, HealthInterval: time.Hour})
	h := gw.Handler()

	g := pc.Generate(pc.Config{Vars: 8, TargetNodes: 64, TargetDepth: 12, SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: 100})
	var sb strings.Builder
	if err := dag.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.ExecuteRequest{Graph: sb.String(), Inputs: [][]float64{pc.UniformInputs(g, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	hop := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), answer) {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	hop() // dials the backend
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		hop()
	}
	runtime.ReadMemStats(&after)
	perHop := (after.TotalAlloc - before.TotalAlloc) / runs
	// Measured 19,124–19,849 bytes, and 38,956–44,976 under -race
	// (2 vCPU, go1.24); 21,462–21,870 when every hop parsed the graph
	// text, and 1,080,501 when the gateway built the graph through a
	// 1 MiB scanner buffer. The slack (about 1.1 kB) absorbs scheduling
	// and runtime differences and stays below a parse per hop.
	ceiling := uint64(20<<10 + 512)
	if raceEnabled {
		ceiling = 64 << 10
	}
	if perHop > ceiling {
		t.Errorf("%d bytes allocated per hop, ceiling %d", perHop, ceiling)
	}
	t.Logf("%d bytes allocated per hop on a %d-byte body", perHop, len(body))
}

// TestGatewayStatsAggregation: the fleet /stats section is the exact
// counter sum and histogram merge of the per-backend sections, with the
// per-backend breakdown beside it.
func TestGatewayStatsAggregation(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	gw := newTestGateway(t, Options{Backends: []string{b1.ts.URL, b2.ts.URL}})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	for _, g := range testGraphs(t, 10) {
		if _, status := executeVia(t, front.URL, g.text, ""); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	// Fetch through the HTTP handler, as an operator would.
	resp, err := http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Gateway.Healthy != 2 || st.Gateway.Proxied != 10 {
		t.Fatalf("gateway section %+v, want healthy=2 proxied=10", st.Gateway)
	}
	if len(st.Backends) != 2 || st.Fleet == nil {
		t.Fatalf("breakdown %d backends, fleet=%v", len(st.Backends), st.Fleet)
	}
	var reqSum, missSum int64
	var latCount uint64
	for _, row := range st.Backends {
		if row.State != "healthy" || row.Stats == nil {
			t.Fatalf("backend row %+v", row)
		}
		reqSum += row.Stats.HTTP.Requests
		missSum += row.Stats.Engine.Misses
		latCount += row.Stats.HTTP.LatencyHist.Count
	}
	if st.Fleet.HTTP.Requests != reqSum || reqSum != 10 {
		t.Errorf("fleet requests %d, backend sum %d, want 10", st.Fleet.HTTP.Requests, reqSum)
	}
	if st.Fleet.Engine.Misses != missSum || missSum != 10 {
		t.Errorf("fleet misses %d, backend sum %d, want 10 (one compile per fingerprint)", st.Fleet.Engine.Misses, missSum)
	}
	if st.Fleet.HTTP.LatencyHist.Count != latCount || st.Fleet.HTTP.Latency.Count != latCount {
		t.Errorf("fleet latency count %d (summary %d), backend sum %d — histograms not merged",
			st.Fleet.HTTP.LatencyHist.Count, st.Fleet.HTTP.Latency.Count, latCount)
	}

	// /metrics is the gateway's own families, then one health gauge per
	// backend; it answers GET only.
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); mresp.StatusCode != http.StatusOK || ct != metrics.PromContentType {
		t.Fatalf("/metrics status %d, content type %q", mresp.StatusCode, ct)
	}
	fams, err := promtest.Parse(mresp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	up := map[string]float64{}
	var proxied float64
	for _, f := range fams {
		for _, smp := range f.Samples {
			switch smp.Name {
			case "dpu_gateway_backend_up":
				up[smp.Labels["backend"]] = smp.Value
			case "dpu_gateway_proxied_total":
				proxied = smp.Value
			}
		}
	}
	if len(up) != 2 || up[b1.ts.URL] != 1 || up[b2.ts.URL] != 1 || proxied != 10 {
		t.Errorf("/metrics backend_up %v, proxied_total %v; want both backends up and 10 proxied", up, proxied)
	}
	post, err := http.Post(front.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", post.StatusCode)
	}
}

// TestGatewayRejectsBadRequests: requests the gateway can answer itself
// never reach a backend.
func TestGatewayRejectsBadRequests(t *testing.T) {
	b := newTestBackend(t)
	gw := newTestGateway(t, Options{Backends: []string{b.ts.URL}})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"graph":"add 0 1\n"}`, http.StatusBadRequest}, // arg before any node
		// A body the backend's decoder rejects never leaves the gateway.
		{`{"graph":"input\n","inputs":[[1e400]]}`, http.StatusBadRequest},
		{`{"graph":"input\n","inputs":[["1"]]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(front.URL+"/execute", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if got := b.executes.Load(); got != 0 {
		t.Errorf("backend saw %d requests the gateway should have rejected", got)
	}
	resp, err := http.Get(front.URL + "/execute")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /execute = %d, want 405", resp.StatusCode)
	}
}

// TestZeroOptionsDefaults pins the routing constants dpu-gateway runs
// with: a hedge delay of 500ms until the gateway has 16 latency samples,
// then the observed p99 clamped to [2ms, 500ms], and a 30s bound on one
// proxied attempt.
func TestZeroOptionsDefaults(t *testing.T) {
	var fresh Gateway
	if d := fresh.hedgeDelay(); d != 500*time.Millisecond {
		t.Errorf("hedge delay without samples = %v, want 500ms", d)
	}
	for _, c := range []struct{ sample, lo, hi time.Duration }{
		{time.Microsecond, 2 * time.Millisecond, 2 * time.Millisecond},
		{50 * time.Millisecond, 50 * time.Millisecond, 60 * time.Millisecond},
		{10 * time.Second, 500 * time.Millisecond, 500 * time.Millisecond},
	} {
		var g Gateway
		for i := 0; i < 16; i++ {
			g.latency.ObserveDuration(c.sample)
		}
		if d := g.hedgeDelay(); d < c.lo || d > c.hi {
			t.Errorf("hedge delay at p99 %v = %v, want in [%v, %v]", c.sample, d, c.lo, c.hi)
		}
	}
	if requestTimeout != 30*time.Second {
		t.Errorf("request timeout = %v, want 30s", requestTimeout)
	}
}
