package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/gateway"
	"dpuv2/internal/metrics"
	"dpuv2/internal/sched"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

// The traced replay sends a workload's seeded request stream, one
// request at a time, through two in-process copies of the serving
// stack, recording a span at every layer boundary from this file:
//
//	request
//	├─ serve.handler      the real handler, whole (stack H)
//	├─ replay             the same request, layer by layer (stack R)
//	│  ├─ serve.json_decode
//	│  ├─ dag.read
//	│  ├─ dag.fingerprint
//	│  ├─ engine.resolve
//	│  ├─ sched.submit
//	│  │  ├─ engine.compile | engine.compile_miss
//	│  │  └─ engine.execute_batch …
//	│  └─ serve.json_encode
//	└─ engine.compile_hit a second Compile of the same key
//
// H is serve.New over its own engine, exactly what dpu-serve mounts. R
// is an engine and a scheduler of its own, the scheduler built over a
// Backend that wraps the engine in spans — which is what turns
// sched.submit's self time into the scheduler's own cost without
// touching the scheduler. Both engines see every
// request once, so both miss and hit on the same requests, and
// handler − Σ(replay steps) is a like-for-like remainder.

// replayCache is the compile-cache size of the replay stacks: dpu-serve's
// default, which is also what serve_churn passes explicitly.
const replayCache = 128

// tracedBackend is R's sched.Backend.
type tracedBackend struct {
	eng         *engine.Engine
	rec         *recorder
	parent, req int
	misses      int64
	nodeVectors int64 // Σ vectors × binarized nodes over execute_batch calls
}

func (b *tracedBackend) Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error) {
	s := b.rec.begin("engine.compile", b.parent, b.req)
	c, err := b.eng.Compile(g, cfg, opts)
	b.rec.end(s)
	if b.rec != nil {
		// The replay is sequential, so a moved miss counter is this call.
		if m := b.eng.Stats().Misses; m != b.misses {
			b.misses = m
			b.rec.spans[s].Name = "engine.compile_miss"
		}
	}
	return c, err
}

func (b *tracedBackend) ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error) {
	s := b.rec.begin("engine.execute_batch", b.parent, b.req)
	b.eng.ExecuteBatchInto(c, batches, outs, cycles, errs)
	b.rec.end(s)
	b.nodeVectors += int64(len(batches) * c.Graph.NumNodes())
}

type stacks struct {
	srv     *serve.Server // H
	handler http.Handler
	eng     *engine.Engine // R
	back    *tracedBackend
	sch     *sched.Scheduler
}

// newStacks builds H and R with dpu-serve's defaults but for one
// setting: the batch size is capped at the workload's vectors per
// request, so a lone request's batch fills and dispatches at once. The
// replay is sequential; with nobody to coalesce with, the default
// policy would park every small request on the linger timer, and a
// timer wait in this sandbox is 1.2 ms ± 0.2 — larger than all the work
// in serve_hot's handler and noisy enough to turn handler − Σ(steps)
// negative. The replay measures work; waiting is measured where it
// really happens (sched.linger_us, from the server under load). A store
// workload gets one artifact directory per stack under dir.
func newStacks(w *workload, dir string) (*stacks, error) {
	policy := sched.Options{MaxBatch: min(32, len(w.reqs[0].inputs))}
	newEngine := func(sub string) (*engine.Engine, error) {
		opts := engine.Options{CacheSize: replayCache}
		if w.store {
			st, err := artifact.Open(filepath.Join(dir, sub))
			if err != nil {
				return nil, err
			}
			opts.Store = st
		}
		return engine.New(opts), nil
	}
	h, err := newEngine("replay-h")
	if err != nil {
		return nil, err
	}
	r, err := newEngine("replay-r")
	if err != nil {
		return nil, err
	}
	s := &stacks{srv: serve.New(h, serve.Options{Sched: policy}), eng: r, back: &tracedBackend{eng: r}}
	s.handler = s.srv.Handler()
	s.sch = sched.New(s.back, policy)
	return s, nil
}

func (s *stacks) close() {
	s.srv.Drain()
	s.sch.Close()
}

// handle runs r through the real handler and returns the reply.
func (s *stacks) handle(r *request, traceparent string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(r.body))
	if traceparent != "" {
		req.Header.Set(trace.Header, traceparent)
	}
	rr := httptest.NewRecorder()
	s.handler.ServeHTTP(rr, req)
	return rr
}

// replaySteps are the children of a replay span whose durations sum to
// the handler's attributed time.
var replaySteps = []string{"serve.json_decode", "dag.read", "dag.fingerprint",
	"engine.resolve", "sched.submit", "serve.json_encode"}

// replayOne sends r through both stacks, recording spans when rec is
// non-nil, and checks every vector of both answers against the oracle.
func (s *stacks) replayOne(rec *recorder, id int, r *request, t *tally) {
	t.Attempted++
	root := rec.begin("request", -1, id)
	defer rec.end(root)

	h := rec.begin("serve.handler", root, id)
	rr := s.handle(r, "")
	rec.end(h)
	if rr.Code != http.StatusOK {
		t.fail("replay %s: handler: HTTP %d: %.120s", r.graph.g.Name, rr.Code, rr.Body.Bytes())
		return
	}
	if _, err := checkResponse(rr.Body.Bytes(), r); err != nil {
		t.fail("replay %s: handler: %v", r.graph.g.Name, err)
		return
	}

	rp := rec.begin("replay", root, id)
	step := func(name string) func() {
		sp := rec.begin(name, rp, id)
		return func() { rec.end(sp) }
	}
	done := step("serve.json_decode")
	var req serve.ExecuteRequest
	err := json.NewDecoder(bytes.NewReader(r.body)).Decode(&req)
	done()
	if err != nil {
		t.fail("replay %s: decode: %v", r.graph.g.Name, err)
		return
	}
	done = step("dag.read")
	g, err := dag.Read(strings.NewReader(req.Graph), "request")
	done()
	if err != nil {
		t.fail("replay %s: dag.Read: %v", r.graph.g.Name, err)
		return
	}
	done = step("dag.fingerprint")
	fp := g.Fingerprint()
	done()
	done = step("engine.resolve")
	cfg, opts := s.eng.Resolve(g, arch.MinEDP(), req.Options)
	done()

	sub := rec.begin("sched.submit", rp, id)
	s.back.rec, s.back.parent, s.back.req = rec, sub, id
	results, errs := s.sch.SubmitMany(g, cfg, opts, req.Inputs)
	rec.end(sub)
	for i, err := range errs {
		if err != nil {
			t.fail("replay %s: vector %d: %v", r.graph.g.Name, i, err)
			return
		}
		if !sameBits(results[i].Outputs, r.want[i]) {
			t.fail("replay %s: vector %d: outputs %v, oracle %v", r.graph.g.Name, i, results[i].Outputs, r.want[i])
			return
		}
	}

	done = step("serve.json_encode")
	c := results[0].Compiled
	resp := serve.ExecuteResponse{
		Fingerprint: fp.String(),
		Config:      c.Prog.Cfg.String(),
		Compile:     c.Stats,
		Batched:     true,
		Results:     make([]serve.ExecuteResult, len(results)),
	}
	for _, sk := range g.Outputs() {
		resp.Sinks = append(resp.Sinks, int(sk))
	}
	for i, res := range results {
		resp.Results[i] = serve.ExecuteResult{Outputs: res.Outputs, Cycles: res.Cycles}
	}
	_, err = json.Marshal(resp)
	done()
	rec.end(rp)
	if err != nil {
		t.fail("replay %s: encode: %v", r.graph.g.Name, err)
		return
	}

	hit := rec.begin("engine.compile_hit", root, id)
	_, err = s.eng.Compile(g, cfg, opts)
	rec.end(hit)
	if err != nil {
		t.fail("replay %s: compile: %v", r.graph.g.Name, err)
	}
}

// layers is the per-layer half of a result: metric name → value.
type layers map[string]float64

func us(ns float64) float64 { return ns / 1e3 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// replay runs the request-path probe of w: replayOps requests through
// the stacks with spans on, then the side probes that reuse the warm
// stacks. It returns the layer metrics of source B that come from
// requests, and the spans.
func replay(ctx context.Context, w *workload, dir string, ops int) (layers, []span, tally, error) {
	var tl tally
	t := &tl
	s, err := newStacks(w, dir)
	if err != nil {
		return nil, nil, tl, err
	}
	defer s.close()
	rec := newRecorder()
	before := s.srv.Stats()
	var textBytes float64
	for i := 0; i < ops; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, tl, err
		}
		r := &w.reqs[i%len(w.reqs)]
		s.replayOne(rec, i, r, t)
		textBytes += float64(len(r.graph.text))
	}
	after := s.srv.Stats()
	if tl.Failed > 0 {
		return nil, rec.spans, tl, nil // the caller reports the failures
	}

	self := rec.selfTimes()
	m := layers{}
	for metric, name := range map[string]string{
		"dag.read_us":             "dag.read",
		"dag.fingerprint_us":      "dag.fingerprint",
		"sched.submit_us":         "sched.submit",
		"serve.handler_us":        "serve.handler",
		"serve.json_decode_us":    "serve.json_decode",
		"serve.json_encode_us":    "serve.json_encode",
		"engine.resolve_us":       "engine.resolve",
		"engine.compile_hit_us":   "engine.compile_hit",
		"engine.execute_batch_us": "engine.execute_batch",
	} {
		m[metric] = us(median(self[name]))
	}
	m["engine.compile_miss_ms"] = median(self["engine.compile_miss"]) / 1e6
	m["dag.read_mb_per_s"] = textBytes / 1e6 / (sum(self["dag.read"]) / 1e9)
	m["sim.func_ns_per_node"] = sum(self["engine.execute_batch"]) / float64(s.back.nodeVectors)

	// handler − Σ steps, paired per request. Spans were appended in
	// request order, so the k-th span of each name belongs to request k.
	rest := append([]float64(nil), self["serve.handler"]...)
	for _, name := range replaySteps {
		for k, d := range spanDurations(rec.spans, name) {
			rest[k] -= d
		}
	}
	m["serve.unattributed_us"] = us(median(rest))
	m.addStats(before, after, ops)

	m["dag.read_alloc_kb"] = readAllocKB(w)
	m["driver.span_overhead_pct"] = s.spanOverhead(w, min(ops, 200), t)
	m["trace.forced_overhead_us"] = s.forcedTraceOverhead(w, min(ops, 200), t)
	if m["serve.http_stack_us"], m["gateway.hop_us"], err = s.overTCP(w, min(ops, 200), t); err != nil {
		return nil, nil, tl, err
	}
	return m, rec.spans, tl, nil
}

// spanDurations lists the full durations of the spans called name, in
// recording order.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// addStats derives the source-A layer metrics from two /stats snapshots
// of one server taken around reqs requests.
func (m layers) addStats(before, after serve.StatsResponse, reqs int) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	meanUS := func(b, a metrics.Snapshot) float64 {
		return us(ratio(float64(a.Sum-b.Sum), float64(a.Count-b.Count)))
	}
	sb, sa := before.Sched, after.Sched
	m["sched.linger_us"] = meanUS(sb.LingerHist, sa.LingerHist)
	m["sched.queue_wait_us"] = meanUS(sb.QueueWaitHist, sa.QueueWaitHist)
	m["sched.execute_us"] = meanUS(sb.ExecuteHist, sa.ExecuteHist)
	batches := float64(sa.Batches - sb.Batches)
	m["sched.mean_batch"] = ratio(float64(sa.Completed+sa.Failed-sb.Completed-sb.Failed), batches)
	m["sched.linger_flush_share"] = ratio(float64(sa.LingerFlushes-sb.LingerFlushes), batches)
	m["sched.rejected"] = float64(sa.Rejected - sb.Rejected)
	eb, ea := before.Engine, after.Engine
	misses := float64(ea.Misses - eb.Misses)
	m["engine.hit_ratio"] = ratio(float64(ea.Hits-eb.Hits), float64(ea.Hits-eb.Hits)+misses)
	m["engine.store_hit_ratio"] = ratio(float64(ea.StoreHits-eb.StoreHits), misses)
	m["engine.evictions_per_req"] = ratio(float64(ea.Evictions-eb.Evictions), float64(reqs))
}

// readAllocKB is the heap dag.Read allocates to parse one graph text,
// averaged over up to 16 graphs of the population. GOMAXPROCS is 1 and
// nothing else runs, so the TotalAlloc delta is the parse alone.
func readAllocKB(w *workload) float64 {
	var ms runtime.MemStats
	var total uint64
	n := 0
	seen := map[*graphSpec]bool{}
	for i := range w.reqs {
		g := w.reqs[i].graph
		if seen[g] || n == 16 {
			continue
		}
		seen[g] = true
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		_, err := dag.Read(strings.NewReader(g.text), "request")
		runtime.ReadMemStats(&ms)
		if err != nil {
			continue // the replay already parsed this text; cannot happen
		}
		total += ms.TotalAlloc - a0
		n++
	}
	return float64(total) / 1024 / float64(n)
}

// spanOverhead replays n requests with spans off and the same n with
// spans on (a scratch recorder), interleaved, and returns by how much
// the median replay got slower, in percent. Which of the two goes first
// alternates: on a churn workload the second replay of a request finds
// the program its first just cached.
func (s *stacks) spanOverhead(w *workload, n int, t *tally) float64 {
	scratch := newRecorder()
	var cost [2][]float64 // spans off, spans on
	for i := 0; i < n; i++ {
		r := &w.reqs[i%len(w.reqs)]
		for k := 0; k < 2; k++ {
			on := (i + k) % 2
			rec := scratch
			if on == 0 {
				rec = nil
			}
			t0 := time.Now()
			s.replayOne(rec, i, r, t)
			cost[on] = append(cost[on], float64(time.Since(t0)))
		}
	}
	off := median(cost[0])
	return (median(cost[1]) - off) / off * 100
}

// forcedTraceOverhead is what a traceparent header costs the handler:
// the median handler time of n requests carrying one minus that of the
// same n requests without, interleaved in alternating order. A request
// with the header is always traced; the benchmark's measured phases
// send none.
func (s *stacks) forcedTraceOverhead(w *workload, n int, t *tally) float64 {
	var cost [2][]float64 // without, with
	for i := 0; i < n; i++ {
		r := &w.reqs[i%len(w.reqs)]
		for k := 0; k < 2; k++ {
			with := (i + k) % 2
			tp := ""
			if with == 1 {
				tp = trace.Traceparent(trace.NewID(), trace.NewSpanID())
			}
			t.Attempted++
			t0 := time.Now()
			rr := s.handle(r, tp)
			d := float64(time.Since(t0))
			if _, err := checkResponse(rr.Body.Bytes(), r); rr.Code != http.StatusOK || err != nil {
				t.fail("traced handler %s: HTTP %d: %v", r.graph.g.Name, rr.Code, err)
				continue
			}
			cost[with] = append(cost[with], d)
		}
	}
	return us(median(cost[1]) - median(cost[0]))
}

// overTCP serves H over loopback TCP and measures the two costs that
// only exist with a socket in the path, each as a median over n
// requests with the backend handler's own time subtracted:
//
//   - httpStack: a keep-alive round trip straight to the backend — the
//     kernel's TCP, net/http on both ends and the body copies; the floor
//     no change inside the handler can cross. It is measured here, both
//     ends in one process, rather than derived as the measured phase's
//     p50 minus serve.handler_us: that p50 comes from another process
//     with other timer behaviour and, with as many callers as cores,
//     includes waiting for the other caller's request.
//   - gatewayHop: the same request through an in-process
//     gateway.Handler in front of that backend — parse-to-route, the
//     proxy round trip and the copy back. The sharded tier has no
//     workload of its own on a 2-core box; this keeps a number on it.
func (s *stacks) overTCP(w *workload, n int, t *tally) (httpStack, gatewayHop float64, err error) {
	// Written on a connection's goroutine, read here once the reply is
	// in; requests are sequential, the atomic is for the memory model.
	var inner atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.handler.ServeHTTP(rw, r)
		inner.Store(int64(time.Since(t0)))
	}))
	defer backend.Close()
	gw, err := gateway.New(gateway.Options{Backends: []string{backend.URL}, Logf: func(string, ...any) {}})
	if err != nil {
		return 0, 0, fmt.Errorf("gateway: %w", err)
	}
	defer gw.Close()
	client := backend.Client()
	var direct, hops []float64
	for i := 0; i < n; i++ {
		r := &w.reqs[i%len(w.reqs)]
		t.Attempted += 2

		t0 := time.Now()
		resp, err := client.Post(backend.URL+"/execute", "application/json", bytes.NewReader(r.body))
		if err != nil {
			t.fail("loopback %s: %v", r.graph.g.Name, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err == nil {
			_, err = checkResponse(body, r)
		}
		if resp.StatusCode != http.StatusOK || err != nil {
			t.fail("loopback %s: HTTP %d: %v", r.graph.g.Name, resp.StatusCode, err)
			continue
		}
		direct = append(direct, float64(int64(d)-inner.Load()))

		req := httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(r.body))
		rr := httptest.NewRecorder()
		t0 = time.Now()
		gw.Handler().ServeHTTP(rr, req)
		d = time.Since(t0)
		if _, err := checkResponse(rr.Body.Bytes(), r); rr.Code != http.StatusOK || err != nil {
			t.fail("gateway %s: HTTP %d: %v", r.graph.g.Name, rr.Code, err)
			continue
		}
		hops = append(hops, float64(int64(d)-inner.Load()))
	}
	return us(median(direct)), us(median(hops)), nil
}

// offlineProbe runs `passes` traced passes over w's jobs and returns
// the layer metrics of source B that come from the offline flow — the
// compiler, verifier, artifact codec, cycle-accurate machine, energy
// model and design-space sweep — with the spans.
func offlineProbe(ctx context.Context, w *workload, passes int) (layers, []span, tally, error) {
	rec := newRecorder()
	var n jobCounts
	var t tally
	for p := 0; p < passes; p++ {
		c, err := runPass(ctx, rec, w, &t, nil)
		if err != nil {
			return nil, nil, t, err
		}
		n.add(c)
	}
	if t.Failed > 0 {
		return nil, rec.spans, t, nil
	}
	self := rec.selfTimes()
	m := layers{
		"compiler.us_per_node":      us(sum(self["compiler.compile"])) / float64(n.graphNodes),
		"compiler.instrs_per_node":  float64(n.instrs) / float64(n.ops),
		"compiler.spills_per_knode": float64(n.spills) / float64(n.ops) * 1000,
		"verify.us_per_instr":       us(sum(self["verify.compiled"])) / float64(n.instrs),
		"artifact.encode_us":        us(median(self["artifact.encode"])),
		"artifact.decode_us":        us(median(self["artifact.decode"])),
		"artifact.bytes_per_node":   float64(n.artifactBytes) / float64(n.graphNodes),
		"sim.cycles_total":          float64(n.cyclesOnce) / float64(passes),
		"sim.ops_per_cycle":         float64(n.ops) / float64(n.cyclesOnce),
		"sim.cycle_ns_per_cycle":    sum(self["sim.run"]) / float64(n.cycles),
		"energy.estimate_us":        us(median(self["energy.estimate"])),
		"energy.edp_geomean":        math.Exp(n.logEDP / float64(n.graphs)),
		"dse.sweep48_ms":            median(self["dse.sweep48"]) / 1e6,
	}
	return m, rec.spans, t, nil
}
