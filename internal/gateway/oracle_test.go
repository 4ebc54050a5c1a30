package gateway

// The fleet oracle: the sharded tier as it is deployed — a gateway with
// default Options (hedging on) in front of two real serve.Server +
// engine backends over one shared artifact store — driven by
// closed-loop clients whose every served value is checked bit for bit
// against dag.Eval, through hedging, a backend drain and the failover
// that follows it.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpuv2/internal/artifact"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/serve"
)

const (
	oracleClients    = 4
	oracleGraphs     = 16 // half owned by each backend
	oracleStallEvery = 50 // backend 0 stalls one /execute in this many
	oracleStall      = 2 * time.Second
	oraclePhase1     = 600 // requests before the drain
)

// oracleGraph is one client graph: the parsed form of the text the
// clients send, so its node ids and sinks are the ones a backend sees,
// and the dag.Binarize form the backends compile. The reference is
// dag.Eval of bin read back through remap: a k-ary sum folded left to
// right differs from its balanced binary tree in the last bit.
type oracleGraph struct {
	g     *dag.Graph
	text  string
	sinks []int
	bin   *dag.Graph
	remap []dag.NodeID
}

// reference returns the sink values the fleet must serve for in, in
// g.Outputs() order.
func (og *oracleGraph) reference(in []float64) ([]float64, error) {
	vals, err := dag.Eval(og.bin, in)
	if err != nil {
		return nil, err
	}
	want := make([]float64, len(og.sinks))
	for j, s := range og.sinks {
		want[j] = vals[og.remap[s]]
	}
	return want, nil
}

// fleetOracle is the clients' shared state: the graphs, the HTTP client,
// and the tallies every request adds to.
type fleetOracle struct {
	t      *testing.T
	url    string
	client *http.Client
	graphs []oracleGraph

	requests  atomic.Int64
	nonFinite atomic.Int64 // error items whose reference has a non-finite sink
	failures  atomic.Int64
}

func (o *fleetOracle) fail(format string, args ...any) {
	if o.failures.Add(1) <= 10 {
		o.t.Errorf(format, args...)
	}
}

// drive runs the closed-loop clients until done reports true and
// returns the slowest request's wall time.
func (o *fleetOracle) drive(seed int64, done func() bool) time.Duration {
	var wg sync.WaitGroup
	var slowest atomic.Int64
	for c := int64(0); c < oracleClients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for !done() && o.failures.Load() < 10 {
				d := int64(o.request(rng))
				for s := slowest.Load(); d > s && !slowest.CompareAndSwap(s, d); s = slowest.Load() {
				}
			}
		}(rand.New(rand.NewSource(seed + c)))
	}
	wg.Wait()
	return time.Duration(slowest.Load())
}

// request sends 1–4 Gaussian vectors for one graph and checks the reply
// against the reference. One vector in 32 is scaled by 1e200, so products
// overflow and the non-finite path is exercised too.
func (o *fleetOracle) request(rng *rand.Rand) time.Duration {
	og := &o.graphs[rng.Intn(len(o.graphs))]
	inputs := make([][]float64, 1+rng.Intn(4))
	for v := range inputs {
		scale := 1.0
		if rng.Intn(32) == 0 {
			scale = 1e200
		}
		inputs[v] = make([]float64, len(og.g.Inputs()))
		for i := range inputs[v] {
			inputs[v][i] = scale * rng.NormFloat64()
		}
	}
	body, err := json.Marshal(serve.ExecuteRequest{Graph: og.text, Inputs: inputs})
	if err != nil {
		o.t.Error(err)
		return 0
	}
	start := time.Now()
	resp, err := o.client.Post(o.url+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		o.fail("transport error: %v", err)
		return time.Since(start)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	o.requests.Add(1)
	if err != nil || resp.StatusCode != http.StatusOK {
		o.fail("status %d (%v): %s", resp.StatusCode, err, raw)
		return elapsed
	}
	var out serve.ExecuteResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		o.fail("undecodable 200: %v", err)
		return elapsed
	}
	if !slices.Equal(out.Sinks, og.sinks) || len(out.Results) != len(inputs) {
		o.fail("sinks %v with %d results, want %v with %d", out.Sinks, len(out.Results), og.sinks, len(inputs))
		return elapsed
	}
	for v, res := range out.Results {
		want, err := og.reference(inputs[v])
		if err != nil {
			o.t.Error(err)
			return elapsed
		}
		finite := !slices.ContainsFunc(want, func(x float64) bool { return math.IsInf(x, 0) || math.IsNaN(x) })
		if res.Error != "" {
			if finite {
				o.fail("item error %q on a finite reference %v", res.Error, want)
			}
			o.nonFinite.Add(1)
			continue
		}
		if len(res.Outputs) != len(want) {
			o.fail("%d outputs, want %d", len(res.Outputs), len(want))
			continue
		}
		for j := range want {
			if math.Float64bits(res.Outputs[j]) != math.Float64bits(want[j]) {
				o.fail("sink %d = %v, reference %v (inputs %v)", og.sinks[j], res.Outputs[j], want[j], inputs[v])
				break
			}
		}
	}
	return elapsed
}

// stallEvery wraps a backend so one /execute in n waits for d before it
// is served, or ends early when the gateway cancels it. The body is read
// first: the server notices a hung-up client only once it has.
func stallEvery(n int64, d time.Duration, stalls *atomic.Int64, inner http.Handler) http.Handler {
	var executes atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/execute" && executes.Add(1)%n == 0 {
			stalls.Add(1)
			body, _ := io.ReadAll(r.Body)
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-r.Context().Done():
				return
			case <-t.C:
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	})
}

func fetchFleetStats(t *testing.T, url string) FleetStatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FleetStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 2 || st.Fleet == nil {
		t.Fatalf("fleet stats carry %d backends, merged view %v", len(st.Backends), st.Fleet != nil)
	}
	return st
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestGatewayFleetOracle runs the fleet with its deployed defaults.
//
// Phase 1, hedging: backend 0 stalls one /execute in 50 for 2s. Every
// 200 item is bit-exact against dag.Eval of dag.Binarize(g) (or an error
// on a non-finite reference), no request gets a non-200, every stall is rescued by a
// hedge within 1s, each backend compiles at least its own shard and the
// fleet at most one extra program per hedge, and the fleet /stats merge
// equals the per-backend sums.
//
// Phase 2, drain and failover: backend 0 drains as dpu-serve does
// (Drain, then Flush) under load. Answers stay bit-exact with no 5xx,
// /stats shows backend 0 out, and backend 1 warm-started backend 0's
// shard from the shared store.
func TestGatewayFleetOracle(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var stalls atomic.Int64
	type fleetBackend struct {
		eng *engine.Engine
		srv *serve.Server
		ts  *httptest.Server
	}
	backends := make([]fleetBackend, 2)
	for i := range backends {
		b := &backends[i]
		b.eng = engine.New(engine.Options{Store: store})
		b.srv = serve.New(b.eng, serve.Options{})
		h := b.srv.Handler()
		if i == 0 {
			h = stallEvery(oracleStallEvery, oracleStall, &stalls, h)
		}
		b.ts = httptest.NewServer(h)
		t.Cleanup(b.eng.Flush) // persists land before the store directory goes
		t.Cleanup(b.ts.Close)
		t.Cleanup(b.srv.Drain)
	}
	gw, err := New(Options{Backends: []string{backends[0].ts.URL, backends[1].ts.URL}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	// Sixteen k-ary random graphs, eight on each backend's shard.
	ring := gw.ring.Load()
	owned := map[string]int{}
	o := &fleetOracle{
		t:      t,
		url:    front.URL,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: oracleClients}},
	}
	t.Cleanup(o.client.CloseIdleConnections)
	for seed := int64(0); len(o.graphs) < oracleGraphs; seed++ {
		g := dag.RandomGraph(dag.RandomConfig{Inputs: 3, Interior: 12, MaxArgs: 4, MulFrac: 0.4, Seed: 7000 + seed})
		var sb strings.Builder
		if err := dag.Write(&sb, g); err != nil {
			t.Fatal(err)
		}
		g, err := dag.Read(strings.NewReader(sb.String()), "request")
		if err != nil {
			t.Fatal(err)
		}
		owner := ring.Owners(ringKey(g.Fingerprint()), 1)[0]
		if owned[owner] == oracleGraphs/2 {
			continue
		}
		owned[owner]++
		og := oracleGraph{g: g, text: sb.String()}
		og.bin, og.remap = dag.Binarize(g)
		for _, s := range g.Outputs() {
			og.sinks = append(og.sinks, int(s))
		}
		o.graphs = append(o.graphs, og)
	}

	// Phase 1: hedging under a stalling shard owner.
	slowest := o.drive(1, func() bool { return o.requests.Load() >= oraclePhase1 })
	if t.Failed() {
		t.FailNow()
	}
	st := fetchFleetStats(t, front.URL)
	t.Logf("phase 1: %d requests, %d stalls, hedges %d (wins %d), slowest %v, %d non-finite items",
		o.requests.Load(), stalls.Load(), st.Gateway.Hedges, st.Gateway.HedgeWins, slowest, o.nonFinite.Load())
	if stalls.Load() == 0 || o.nonFinite.Load() == 0 {
		t.Fatalf("the load never reached a stall (%d) or a non-finite output (%d)", stalls.Load(), o.nonFinite.Load())
	}
	if slowest >= time.Second {
		t.Errorf("slowest request took %v, want < 1s: a stall was not rescued by a hedge", slowest)
	}
	if st.Gateway.Hedges == 0 || st.Gateway.HedgeWins == 0 {
		t.Errorf("hedges %d, hedge wins %d: want both > 0", st.Gateway.Hedges, st.Gateway.HedgeWins)
	}
	var misses, requests int64
	var schedCount uint64
	for i, row := range st.Backends {
		if row.State != "healthy" || row.Stats == nil {
			t.Fatalf("backend %d row %+v", i, row)
		}
		if m, own := row.Stats.Engine.Misses, owned[backends[i].ts.URL]; m < int64(own) {
			t.Errorf("backend %d compiled %d programs, fewer than the %d graphs of its shard", i, m, own)
		}
		misses += row.Stats.Engine.Misses
		requests += row.Stats.HTTP.Requests
		schedCount += row.Stats.Sched.LatencyHist.Count
	}
	if misses > oracleGraphs+st.Gateway.Hedges {
		t.Errorf("fleet compiled %d programs, more than %d graphs + %d hedges", misses, oracleGraphs, st.Gateway.Hedges)
	}
	if st.Fleet.HTTP.Requests != requests || st.Fleet.Sched.LatencyHist.Count != schedCount || st.Fleet.Sched.Latency.Count != schedCount {
		t.Errorf("fleet merge: http.requests %d, sched latency count %d (summary %d); per-backend sums %d, %d",
			st.Fleet.HTTP.Requests, st.Fleet.Sched.LatencyHist.Count, st.Fleet.Sched.Latency.Count, requests, schedCount)
	}
	if st.Fleet.HTTP.NonFiniteOutputs < o.nonFinite.Load() {
		t.Errorf("fleet counts %d non-finite outputs, clients saw %d", st.Fleet.HTTP.NonFiniteOutputs, o.nonFinite.Load())
	}

	// Phase 2: drain backend 0 while the clients keep running.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.drive(100, stop.Load)
	}()
	defer func() { stop.Store(true); <-done }() // clients stop before a Fatal returns
	mark := o.requests.Load()
	waitFor(t, "traffic before the drain", func() bool { return o.requests.Load() >= mark+100 })
	backends[0].srv.Drain()
	backends[0].eng.Flush()
	waitFor(t, "the gateway to take backend 0 out", func() bool { return gw.backends[0].getState() != stateHealthy })
	mark = o.requests.Load()
	waitFor(t, "traffic after the drain", func() bool { return o.requests.Load() >= mark+200 })
	stop.Store(true)
	<-done

	st = fetchFleetStats(t, front.URL)
	if s := st.Backends[0].State; s != "draining" && s != "down" {
		t.Errorf("drained backend 0 reads %q on /stats", s)
	}
	if st.Backends[1].State != "healthy" || st.Backends[1].Stats == nil {
		t.Fatalf("survivor row %+v", st.Backends[1])
	}
	if hits := st.Backends[1].Stats.Engine.StoreHits; hits == 0 {
		t.Error("backend 1 has no store hits: it did not warm-start backend 0's shard from the shared store")
	}
	t.Logf("phase 2: %d requests in all, %d failovers, backend 1 store hits %d",
		o.requests.Load(), st.Gateway.Failovers, st.Backends[1].Stats.Engine.StoreHits)
}
