package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/serve"
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

func executeVia(t *testing.T, url string, graph string) (*serve.ExecuteResponse, int) {
	t.Helper()
	body, _ := json.Marshal(serve.ExecuteRequest{Graph: graph, Inputs: [][]float64{{1, 2}}})
	resp, err := http.Post(url+"/execute", "application/json", bytes.NewReader(body))
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
// same fingerprint always routes to the same live backend, so repeated
// traffic for a graph compiles exactly once fleet-wide — per-backend
// engine misses equal the number of distinct fingerprints in that
// backend's shard, never the full population.
func TestGatewayShardAffinity(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	// The invariant under test is routing. A hedge copy (armed once the
	// latency window has 16 samples) would compile the graph on the
	// second owner as well; hedging has its own test.
	gw := newTestGateway(t, Options{Backends: []string{b1.ts.URL, b2.ts.URL}, DisableHedge: true})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	graphs := testGraphs(t, 12)
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for _, g := range graphs {
			if out, status := executeVia(t, front.URL, g.text); status != http.StatusOK {
				t.Fatalf("status %d", status)
			} else if out.Fingerprint != g.fp.String() {
				t.Fatalf("fingerprint mismatch: %s != %s", out.Fingerprint, g.fp)
			}
		}
	}
	s1, s2 := b1.eng.Stats(), b2.eng.Stats()
	// Shard affinity: each fingerprint compiled on exactly one backend.
	if s1.Misses+s2.Misses != int64(len(graphs)) {
		t.Errorf("fleet-wide misses %d+%d, want %d (one compile per fingerprint)", s1.Misses, s2.Misses, len(graphs))
	}
	if b1.executes.Load() == 0 || b2.executes.Load() == 0 {
		t.Errorf("traffic not spread: backend hits %d / %d", b1.executes.Load(), b2.executes.Load())
	}
	// The ring's static assignment matches where traffic actually went.
	r := gw.ring.Load()
	for _, g := range graphs {
		owner := r.Owner(ringKey(g.fp))
		if owner != b1.ts.URL && owner != b2.ts.URL {
			t.Fatalf("owner %q not a backend", owner)
		}
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
		if _, status := executeVia(t, front.URL, g.text); status != http.StatusOK {
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
			if _, status := executeVia(t, front.URL, g.text); status != http.StatusOK {
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
		if r.Owner(ringKey(g.fp)) == slow.URL {
			victim = g
			break
		}
		if i == 63 {
			t.Fatal("no graph hashed to the slow backend in 64 tries")
		}
	}

	start := time.Now()
	out, status := executeVia(t, front.URL, victim.text)
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
		DisableHedge:   true,      // isolate the hard-failure path
	})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	r := gw.ring.Load()
	var victim testGraph
	for i, g := range testGraphs(t, 64) {
		if r.Owner(ringKey(g.fp)) == dying.ts.URL {
			victim = g
			break
		}
		if i == 63 {
			t.Fatal("no graph hashed to the dying backend in 64 tries")
		}
	}
	dying.ts.CloseClientConnections()
	dying.ts.Close()

	out, status := executeVia(t, front.URL, victim.text)
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

// TestGatewayStatsAggregation: the fleet /stats section is the exact
// counter sum and histogram merge of the per-backend sections, with the
// per-backend breakdown beside it.
func TestGatewayStatsAggregation(t *testing.T) {
	b1, b2 := newTestBackend(t), newTestBackend(t)
	gw := newTestGateway(t, Options{Backends: []string{b1.ts.URL, b2.ts.URL}})
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	for _, g := range testGraphs(t, 10) {
		if _, status := executeVia(t, front.URL, g.text); status != http.StatusOK {
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
