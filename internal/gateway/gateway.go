// Package gateway is the sharded multi-node serving tier: an HTTP front
// that consistent-hashes graph fingerprints across N dpu-serve backends,
// so each backend's compile cache stays hot for its shard — the
// compile-once/execute-many premise, preserved at fleet scale. One
// process cannot carry millions of users; N processes WITHOUT shard
// affinity would each re-compile the full fingerprint population,
// shredding every cache. The gateway is what makes horizontal scale
// cache-coherent.
//
// Mechanics:
//
//   - POST /execute is routed by the request graph's dag.Fingerprint on
//     a consistent-hash ring (ring.go) over the live backends.
//   - Every backend is polled at /healthz; a 503 ("draining", the signal
//     serve.Server raises during graceful shutdown) or an unreachable
//     backend leaves the ring, and its shard ranges fail over to their
//     clockwise successors — only those ranges remap.
//   - A request whose shard owner is slow is hedged: after a delay
//     derived from the gateway's observed p99, the SAME request is sent
//     to the next ring owner; the first response wins and the loser's
//     context is canceled. Execution is a pure function of the request,
//     so duplicating it is safe; at worst the loser backend warms its
//     cache for a range it may inherit later.
//   - An owner that fails outright (connect error, 503) fails over
//     immediately to the next distinct owner.
//   - GET /stats merges every backend's engine/sched/http sections into
//     one fleet view (stats.go), with the per-backend breakdown beside
//     it.
//
// Backends should share one -artifact-dir: any backend then warm-starts
// from the same store, so a failover target decodes the shard's programs
// instead of recompiling them, and a rebalanced fleet converges without
// cold compiles.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpuv2/internal/dag"
	"dpuv2/internal/metrics"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

// requestTimeout bounds one proxied attempt to one backend. The hedge
// delay is the gateway's observed p99 clamped to [hedgeMin, hedgeMax],
// and hedgeMax until it has latency samples.
const (
	requestTimeout = 30 * time.Second
	hedgeMin       = 2 * time.Millisecond
	hedgeMax       = 500 * time.Millisecond
)

// errTooLarge fails an attempt whose answer is longer than
// serve.MaxRequestBytes, the most the gateway buffers: the client gets a
// 502, never a truncated 200. Execution is a pure function of the
// request, so no other owner is tried.
var errTooLarge = fmt.Errorf("backend response exceeds the %d-byte limit", serve.MaxRequestBytes)

// Options configure a Gateway; zero values take the documented defaults.
// Request tracing needs no configuration: a request carrying a
// traceparent header is always traced, others are sampled (see package
// trace), and the gateway re-stamps the header with its own span ID
// before forwarding, so the backend's trace shares the gateway's trace
// ID — one ID names the request on both sides of the hop.
type Options struct {
	// Backends are the dpu-serve base URLs (e.g. http://10.0.0.1:8080).
	Backends []string
	// HealthInterval is the /healthz polling period. Default 1s. One
	// health probe or /stats fetch is bounded by the interval, capped at
	// 2s.
	HealthInterval time.Duration
	// Logf receives membership transitions and proxy errors.
	// Default log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) normalize() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// backendState is a backend's health as last probed.
type backendState int32

const (
	stateUnknown  backendState = iota // not probed yet: out of the ring
	stateHealthy                      // 200 /healthz: in the ring
	stateDraining                     // 503 /healthz: draining, out of the ring
	stateDown                         // unreachable / unexpected status
)

func (s backendState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	default:
		return "unknown"
	}
}

// backend is one dpu-serve the gateway fronts: its address, its pooled
// HTTP client, and its last probed health state.
type backend struct {
	addr    string
	client  *http.Client
	state   atomic.Int32 // backendState
	lastErr atomic.Value // string; last probe failure, "" when fine
}

func (b *backend) setState(s backendState) (changed bool) {
	return b.state.Swap(int32(s)) != int32(s)
}

func (b *backend) getState() backendState { return backendState(b.state.Load()) }

// Gateway is the sharded serving front. Create with New, mount
// Handler on a listener (serve.NewHTTPServer), stop with Close.
type Gateway struct {
	opts     Options
	backends []*backend
	byAddr   map[string]*backend
	ring     atomic.Pointer[ring] // live members only; rebuilt on transitions

	proxied   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	failovers atomic.Int64
	rejected  atomic.Int64 // no live backend / all attempts failed
	latency   metrics.Histogram
	tracer    *trace.Tracer
	// fps gives each graph text's fingerprint by the backends' rule,
	// parsing a text only when the memo does not hold it.
	fps dag.Fingerprints

	draining atomic.Bool
	mux      *http.ServeMux
	stop     chan struct{}
	stopped  sync.WaitGroup
}

// New builds a Gateway over opts.Backends, probes every backend once
// synchronously (so a gateway in front of a live fleet routes from its
// first request), and starts the periodic health checker.
func New(opts Options) (*Gateway, error) {
	opts = opts.normalize()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends configured")
	}
	gw := &Gateway{
		opts:   opts,
		byAddr: make(map[string]*backend, len(opts.Backends)),
		stop:   make(chan struct{}),
	}
	for _, addr := range opts.Backends {
		addr = strings.TrimSuffix(addr, "/")
		if addr == "" || gw.byAddr[addr] != nil {
			return nil, fmt.Errorf("gateway: empty or duplicate backend %q", addr)
		}
		b := &backend{
			addr: addr,
			// One pooled client per backend: connections are reused per
			// shard owner, and one slow backend cannot exhaust another's
			// pool. The per-attempt context enforces requestTimeout; the
			// client timeout is the safety net behind it.
			client: &http.Client{
				Timeout: requestTimeout + gw.healthTimeout(),
				Transport: &http.Transport{
					MaxIdleConns:        64,
					MaxIdleConnsPerHost: 64,
					IdleConnTimeout:     90 * time.Second,
				},
			},
		}
		b.lastErr.Store("")
		gw.backends = append(gw.backends, b)
		gw.byAddr[addr] = b
	}
	gw.ring.Store(newRing(nil))
	gw.checkHealth() // synchronous first pass
	gw.stopped.Add(1)
	go gw.healthLoop()

	gw.tracer = trace.New(trace.Options{Service: "gateway"})

	gw.mux = http.NewServeMux()
	gw.mux.HandleFunc("/execute", gw.handleExecute)
	gw.mux.HandleFunc("/stats", gw.handleStats)
	gw.mux.HandleFunc("/metrics", metrics.Handler(func() any { return gw.ownStats() }, gw.writeBackendUp))
	gw.mux.HandleFunc("/traces", gw.tracer.Handler())
	gw.mux.HandleFunc("/healthz", gw.handleHealthz)
	return gw, nil
}

// Handler returns the HTTP handler tree.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Drain flips /healthz to 503 and rejects new /execute requests, so a
// front balancer (or a gateway-of-gateways) can take this instance out.
func (g *Gateway) Drain() { g.draining.Store(true) }

// Close stops the health checker. Safe to call once.
func (g *Gateway) Close() {
	close(g.stop)
	g.stopped.Wait()
}

func (g *Gateway) healthLoop() {
	defer g.stopped.Done()
	t := time.NewTicker(g.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.checkHealth()
		}
	}
}

// checkHealth probes every backend concurrently and rebuilds the ring if
// any membership changed. Draining and down backends are equally out of
// the ring; the distinction is kept for /stats and logs.
func (g *Gateway) checkHealth() {
	var wg sync.WaitGroup
	changed := make([]bool, len(g.backends))
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			changed[i] = g.probe(b)
		}(i, b)
	}
	wg.Wait()
	for _, c := range changed {
		if c {
			g.rebuildRing()
			return
		}
	}
}

// healthTimeout bounds one health probe or /stats fetch: the polling
// interval, capped at 2s.
func (g *Gateway) healthTimeout() time.Duration {
	return min(g.opts.HealthInterval, 2*time.Second)
}

// probe classifies one backend: 200 → healthy, 503 → draining (the
// serve.Server readiness signal), anything else → down. Reports whether
// the state changed.
func (g *Gateway) probe(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.healthTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/healthz", nil)
	if err != nil {
		b.lastErr.Store(err.Error())
		return b.setState(stateDown)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.lastErr.Store(err.Error())
		return b.setState(stateDown)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var next backendState
	switch {
	case resp.StatusCode == http.StatusOK:
		next = stateHealthy
		b.lastErr.Store("")
	case resp.StatusCode == http.StatusServiceUnavailable:
		next = stateDraining
		b.lastErr.Store("draining")
	default:
		next = stateDown
		b.lastErr.Store(fmt.Sprintf("healthz status %d", resp.StatusCode))
	}
	return b.setState(next)
}

// rebuildRing recomputes ring membership from current states.
func (g *Gateway) rebuildRing() {
	var live []string
	for _, b := range g.backends {
		if b.getState() == stateHealthy {
			live = append(live, b.addr)
		}
	}
	g.ring.Store(newRing(live))
	states := make([]string, len(g.backends))
	for i, b := range g.backends {
		states[i] = b.addr + "=" + b.getState().String()
	}
	g.opts.Logf("gateway: ring membership %d/%d live (%s)", len(live), len(g.backends), strings.Join(states, " "))
}

// hedgeDelay derives the hedging trigger from the gateway's own
// end-to-end latency: a request slower than the fleet's p99 is worth a
// second copy on the next owner. With too few samples to trust a p99,
// be conservative (hedgeMax) rather than duplicate eagerly.
func (g *Gateway) hedgeDelay() time.Duration {
	const minSamples = 16
	s := g.latency.Summary()
	if s.Count < minSamples {
		return hedgeMax
	}
	return min(max(time.Duration(s.P99), hedgeMin), hedgeMax)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if len(g.ring.Load().addrs) == 0 {
		http.Error(w, "no live backends", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// attemptResult is one backend's answer to a proxied request.
type attemptResult struct {
	addr        string
	hedge       bool // launched by the hedge timer, not failover
	span        int  // trace span index of this attempt (-1 untraced)
	status      int
	contentType string
	body        []byte
	err         error
}

// usable reports whether the attempt is an authoritative answer the
// client should see. A 503 is the backend draining mid-flight (the ring
// just hasn't caught up): fail over instead of relaying it.
func (a attemptResult) usable() bool {
	return a.err == nil && a.status != http.StatusServiceUnavailable
}

func (g *Gateway) handleExecute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if g.draining.Load() {
		g.rejected.Add(1)
		http.Error(w, "gateway draining", http.StatusServiceUnavailable)
		return
	}
	// A traced request forwards a traceparent re-stamped with the
	// gateway's own span ID (same trace ID, so the backend's trace joins
	// this one). An untraced one forwards none: a valid client header is
	// always traced, so what is dropped here is a malformed one.
	tr := g.tracer.StartRequest(r.Header, "gateway", start)
	var tp string
	if tr != nil {
		tp = trace.Traceparent(tr.ID(), trace.NewSpanID())
	}
	defer g.tracer.Finish(tr)

	body, err := serve.ReadBody(w, r)
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The shard key is the graph's fingerprint. The body is decoded by
	// the backend's own decoder, so the gateway turns away exactly the
	// bodies a backend would, and forwards the bytes it read unchanged.
	req, err := serve.DecodeExecuteRequest(body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The memo gives the fingerprint, parsing the text only if it has
	// not seen it; no graph is built.
	fp, _, err := g.fps.Parse(req.Graph)
	if err != nil {
		http.Error(w, "bad graph: "+err.Error(), http.StatusBadRequest)
		return
	}
	candidates := g.ring.Load().Owners(ringKey(fp), len(g.backends))
	if len(candidates) == 0 {
		g.rejected.Add(1)
		http.Error(w, "no live backends", http.StatusServiceUnavailable)
		return
	}
	if tr != nil {
		tr.Span("route", start, tr.Now().Sub(start), 0,
			trace.Str("fingerprint", fp.Short()),
			trace.Str("owner", candidates[0]))
	}
	res, ok := g.forward(r.Context(), candidates, body, tp, tr)
	if !ok {
		g.rejected.Add(1)
		msg := "no usable backend answer"
		if res.err != nil {
			msg += ": " + res.err.Error()
		} else if res.status != 0 {
			msg += fmt.Sprintf(": last status %d", res.status)
		}
		http.Error(w, msg, http.StatusBadGateway)
		return
	}
	g.proxied.Add(1)
	g.latency.ObserveDuration(time.Since(start))
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// forward races the request across candidates: the first is sent
// immediately, a hedge copy goes to the next distinct owner once the
// p99-derived delay elapses without an answer, and hard failures
// (connect error, 503-draining) fail over to the remaining owners at
// once. The first usable response wins; every other in-flight attempt is
// canceled. Reports ok=false with the last failure when no candidate
// answered, and at once when an answer was too large to relay.
func (g *Gateway) forward(ctx context.Context, candidates []string, body []byte, tp string, tr *trace.Trace) (attemptResult, bool) {
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll() // cancels every losing attempt
	results := make(chan attemptResult, len(candidates))
	next := 0
	inflight := 0
	launch := func(hedge bool) {
		b := g.byAddr[candidates[next]]
		// Attempt spans are recorded only from this loop goroutine —
		// Begin here, SetAttrs/End when the result arrives — so span
		// writes never race the deferred Finish in handleExecute. A
		// canceled loser's span stays open; Finish closes it, and its
		// duration reads as "until the request was answered".
		stage := "forward"
		switch {
		case hedge:
			stage = "hedge"
		case next > 0:
			stage = "failover"
		}
		sp := tr.Begin(stage, 0)
		tr.SetAttrs(sp, trace.Str("backend", b.addr))
		next++
		inflight++
		go func() {
			res := g.attempt(ctx, b, body, tp)
			res.hedge = hedge
			res.span = sp
			results <- res
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	var hedged bool
	if len(candidates) > 1 {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	var last attemptResult
	for {
		select {
		case res := <-results:
			inflight--
			if res.err != nil {
				tr.SetAttrs(res.span, trace.Str("error", res.err.Error()))
			} else {
				tr.SetAttrs(res.span, trace.Int("status", int64(res.status)))
			}
			tr.End(res.span)
			if res.usable() {
				if res.hedge {
					g.hedgeWins.Add(1)
				}
				return res, true
			}
			last = res
			if errors.Is(res.err, errTooLarge) {
				return res, false // every owner would answer the same
			}
			// Hard failure: this owner is gone or draining; fail its
			// range over to the next distinct owner right away.
			if next < len(candidates) {
				g.failovers.Add(1)
				launch(false)
			} else if inflight == 0 {
				return last, false
			}
		case <-hedgeC:
			hedgeC = nil
			if !hedged && next < len(candidates) {
				hedged = true
				g.hedges.Add(1)
				launch(true)
			}
		case <-ctx.Done():
			// Client went away (or its deadline passed): stop racing.
			return attemptResult{err: ctx.Err()}, false
		}
	}
}

// attempt sends one copy of the request to one backend, propagating the
// traceparent header tp when non-empty.
func (g *Gateway) attempt(ctx context.Context, b *backend, body []byte, tp string) attemptResult {
	res := attemptResult{addr: b.addr, span: -1}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+"/execute", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if tp != "" {
		req.Header.Set(trace.Header, tp)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.contentType = resp.Header.Get("Content-Type")
	switch n := resp.ContentLength; {
	case n > serve.MaxRequestBytes:
		res.err = errTooLarge
	case n >= 0:
		// A declared answer is read into one buffer of its size.
		res.body = make([]byte, n)
		_, res.err = io.ReadFull(resp.Body, res.body)
	default:
		if res.body, err = io.ReadAll(io.LimitReader(resp.Body, serve.MaxRequestBytes+1)); err != nil {
			res.err = err
		} else if len(res.body) > serve.MaxRequestBytes {
			res.body, res.err = nil, errTooLarge
		}
	}
	return res
}
