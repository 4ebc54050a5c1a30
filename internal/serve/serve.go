// Package serve is the HTTP serving layer over the engine and the
// admission scheduler: cmd/dpu-serve mounts it on a listener,
// cmd/dpu-loadgen and the tests drive it in-process. Every request goes
// through the scheduler — a POST /execute is one call, its input vectors
// admitted against the queue bound and run in chunks on the engine's
// batch path — with admission control surfaced as HTTP status codes:
//
//	400  malformed JSON / graph / config
//	413  more input vectors than the per-request bound
//	422  graph fails compilation
//	429  scheduler queue full (shed load, retry later)
//	503  server draining (graceful shutdown in progress)
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/metrics"
	"dpuv2/internal/sched"
	"dpuv2/internal/trace"
)

// ExecuteRequest is the POST /execute body.
type ExecuteRequest struct {
	Graph   string           `json:"graph"`
	Config  arch.Config      `json:"config"`
	Options compiler.Options `json:"options"`
	Inputs  [][]float64      `json:"inputs"`
}

// ExecuteResult is one input vector's outcome.
type ExecuteResult struct {
	Outputs []float64 `json:"outputs,omitempty"`
	Cycles  int       `json:"cycles,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// ExecuteResponse is the POST /execute reply.
type ExecuteResponse struct {
	Fingerprint string         `json:"fingerprint"`
	Config      string         `json:"config"`
	Sinks       []int          `json:"sinks"`
	Compile     compiler.Stats `json:"compile"`
	// Batched is always true: every request is served through the
	// scheduler. Kept on the wire for existing clients.
	Batched bool            `json:"batched"`
	Results []ExecuteResult `json:"results"`
}

// HTTPStats is the serving layer's own slice of GET /stats. The `prom`
// tags declare its /metrics families (see package metrics).
type HTTPStats struct {
	Requests int64 `json:"requests" prom:"dpu_http_requests_total"`
	// Errors counts requests answered with a non-2xx status.
	Errors int64 `json:"errors" prom:"dpu_http_errors_total"`
	// NonFiniteOutputs counts input vectors whose outputs overflowed to
	// ±Inf/NaN and were itemized as errors inside a 200.
	NonFiniteOutputs int64 `json:"non_finite_outputs" prom:"dpu_http_non_finite_outputs_total"`
	// ParseMemoHits counts requests whose graph text the server had
	// already parsed, answered its fingerprint by the parse memo
	// without parsing it again.
	ParseMemoHits int64 `json:"parse_memo_hits" prom:"dpu_http_parse_memo_hits_total"`
	// Latency summarizes whole-request wall time in nanoseconds,
	// including scheduler queueing.
	Latency metrics.Summary `json:"latency_ns"`
	// LatencyHist is the full bucket snapshot behind Latency — the
	// mergeable form a gateway aggregates across backends
	// (metrics.Snapshot.Merge); quantiles themselves don't merge.
	LatencyHist metrics.Snapshot `json:"latency_hist" prom:"dpu_http_request_latency_ns"`
	// Decode, Parse and Encode summarize the handler's own stages in
	// nanoseconds: reading and decoding the body, the parse memo's
	// lookup of its graph's Fingerprint (with dag.Parse on a memo miss),
	// and marshalling and writing the reply. Every request that reaches
	// a stage observes it, so the counts fall from decode to encode.
	Decode     metrics.Summary  `json:"decode_ns"`
	Parse      metrics.Summary  `json:"parse_ns"`
	Encode     metrics.Summary  `json:"encode_ns"`
	DecodeHist metrics.Snapshot `json:"decode_hist" prom:"dpu_http_stage_latency_ns{stage=\"decode\"}"`
	ParseHist  metrics.Snapshot `json:"parse_hist" prom:"dpu_http_stage_latency_ns{stage=\"parse\"}"`
	EncodeHist metrics.Snapshot `json:"encode_hist" prom:"dpu_http_stage_latency_ns{stage=\"encode\"}"`
}

// StatsResponse is the GET /stats body: engine counters, scheduler
// counters (queue depth, batch-size histogram, per-item latency
// quantiles) and HTTP-level latency quantiles.
type StatsResponse struct {
	Engine engine.Stats `json:"engine"`
	Sched  sched.Stats  `json:"sched"`
	HTTP   HTTPStats    `json:"http"`
}

// MaxRequestBytes bounds one /execute body; graphs and input batches
// beyond it belong in multiple requests. Exported so the gateway applies
// the same bound before buffering a body for hedged forwarding.
const MaxRequestBytes = 64 << 20

// maxInputsPerRequest bounds the input vectors of one request; more are
// answered 413, so one client cannot monopolize the scheduler's queue.
const maxInputsPerRequest = 1024

// Options configure a Server; the zero value is a production-ready
// default. Request tracing needs no configuration: requests carrying a
// traceparent header are always traced, others are sampled (see package
// trace).
type Options struct {
	// Sched configures the scheduler: its chunk size.
	Sched sched.Options
}

// Server owns the handler state: the engine, the scheduler in front of
// it, and the serving metrics. Create with New, mount Handler, stop with
// Drain.
type Server struct {
	eng *engine.Engine
	sch *sched.Scheduler

	draining atomic.Bool
	// drainMu is held shared by every in-flight /execute handler and
	// exclusively (briefly) by Drain, which thereby waits for them.
	drainMu sync.RWMutex

	requests              atomic.Int64
	errors                atomic.Int64
	nonFinite             atomic.Int64
	parseMemoHits         atomic.Int64
	latency               metrics.Histogram
	decode, parse, encode metrics.Histogram

	// fps gives each graph text's fingerprint, parsing a text only when
	// the memo does not hold it.
	fps dag.Fingerprints

	tracer *trace.Tracer

	mux *http.ServeMux
}

// New builds a Server around eng.
func New(eng *engine.Engine, opts Options) *Server {
	s := &Server{
		eng:    eng,
		sch:    sched.New(eng, opts.Sched),
		tracer: trace.New(trace.Options{Service: "serve"}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", metrics.Handler(func() any { return s.Stats() }, nil))
	s.mux.HandleFunc("/traces", s.tracer.Handler())
	s.mux.HandleFunc("/execute", s.handleExecute)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the serving path down: new requests are
// answered 503, the scheduler stops admission and waits for the calls it
// admitted, and Drain returns once every in-flight request has been
// answered.
// Safe to call more than once.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.sch.Close()
	s.drainMu.Lock()
	s.drainMu.Unlock() //nolint:staticcheck // empty critical section = barrier
}

// Stats snapshots all three layers.
func (s *Server) Stats() StatsResponse {
	st := StatsResponse{
		Engine: s.eng.Stats(),
		Sched:  s.sch.Stats(),
		HTTP: HTTPStats{
			Requests:         s.requests.Load(),
			Errors:           s.errors.Load(),
			NonFiniteOutputs: s.nonFinite.Load(),
			ParseMemoHits:    s.parseMemoHits.Load(),
			LatencyHist:      s.latency.Snapshot(),
			DecodeHist:       s.decode.Snapshot(),
			ParseHist:        s.parse.Snapshot(),
			EncodeHist:       s.encode.Snapshot(),
		},
	}
	metrics.Summarize(&st.HTTP)
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// fail answers with status and counts the error.
func (s *Server) fail(w http.ResponseWriter, msg string, status int) {
	s.errors.Add(1)
	http.Error(w, msg, status)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	defer func() { s.latency.ObserveDuration(time.Since(start)) }()
	if r.Method != http.MethodPost {
		s.fail(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		s.fail(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	// A nil tr (an untraced request) makes every recording below a no-op.
	tr := s.tracer.StartRequest(r.Header, "serve", start)
	defer s.tracer.Finish(tr)

	t0 := time.Now()
	body, err := ReadBody(w, r)
	var req ExecuteRequest
	if err == nil {
		req, err = DecodeExecuteRequest(body)
	}
	s.stage(tr, &s.decode, "decode", t0,
		trace.Int("bytes", int64(len(body))), trace.Int("inputs", int64(len(req.Inputs))))
	if err != nil {
		s.fail(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Inputs) > maxInputsPerRequest {
		s.fail(w, fmt.Sprintf("batch of %d input vectors exceeds the per-request limit %d",
			len(req.Inputs), maxInputsPerRequest), http.StatusRequestEntityTooLarge)
		return
	}
	// The memo gives the cache key, parsing the text only if it has not
	// seen it; the graph itself is built only if the engine has no
	// checked program for it.
	t0 = time.Now()
	fp, p, err := s.fps.Parse(req.Graph)
	memoHit := err == nil && p == nil
	s.stage(tr, &s.parse, "parse", t0, trace.Bool("memo_hit", memoHit))
	if err != nil {
		s.fail(w, "bad graph: "+err.Error(), http.StatusBadRequest)
		return
	}
	if memoHit {
		s.parseMemoHits.Add(1)
	}
	cfg := req.Config
	if cfg == (arch.Config{}) {
		// Only a fully omitted config defaults to the paper's min-EDP
		// point; a partial config is the client's mistake and fails
		// validation with a precise message instead of being silently
		// replaced.
		cfg = arch.MinEDP()
	}
	// A hostile {R: 1e9} request would otherwise OOM the server.
	if err := cfg.CheckBounds(); err != nil {
		s.fail(w, "bad config: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp := ExecuteResponse{
		Fingerprint: fp.String(),
		Batched:     true,
		Results:     make([]ExecuteResult, len(req.Inputs)),
	}
	if tr != nil {
		tr.SetAttrs(0, trace.Str("fingerprint", fp.Short()))
	}
	// The call's compile step, run once after admission (never for a
	// call turned away): the engine answers by key with the program and
	// the client graph's sinks, and builds the graph only when it needs
	// it (a miss, or the first hit on a preloaded entry), parsing the
	// text then if the memo answered its fingerprint.
	graph := func() (*dag.Graph, error) {
		if p == nil {
			var err error
			if p, err = dag.Parse(req.Graph); err != nil {
				return nil, err
			}
		}
		return p.Graph("request"), nil
	}
	var c *compiler.Compiled
	var sinks []dag.NodeID
	compile := func() (*compiler.Compiled, error) {
		var err error
		c, sinks, err = s.eng.Program(fp, graph, cfg, req.Options, tr)
		return c, err
	}
	if !s.executeBatched(w, r, compile, &req, &resp, tr) {
		return // already answered with 422/429/503
	}
	if c == nil {
		// An empty input list admits nothing, so the scheduler ran no
		// compile step: run it for the response metadata.
		if _, err := compile(); err != nil {
			s.fail(w, "compile: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
	}
	// Report sinks as ids of the graph the client submitted; for k-ary
	// graphs the compiled (binarized) graph has different ids.
	resp.Sinks = make([]int, len(sinks))
	for i, sk := range sinks {
		resp.Sinks[i] = int(sk)
	}
	resp.Config = c.Prog.Cfg.String()
	resp.Compile = c.Stats
	// JSON has no encoding for ±Inf/NaN, and a mid-body Encode failure
	// would truncate a committed 200: itemize non-finite outputs as
	// per-vector errors and encode to a buffer before writing anything.
	for i, res := range resp.Results {
		for _, v := range res.Outputs {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				resp.Results[i] = ExecuteResult{Error: fmt.Sprintf("non-finite output %v (overflow?)", v)}
				s.nonFinite.Add(1)
				break
			}
		}
	}
	t0 = time.Now()
	out, err := json.Marshal(resp)
	if err != nil {
		s.fail(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The declared length lets the gateway read the answer into one
	// buffer of its size.
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Write(out)
	s.stage(tr, &s.encode, "encode", t0, trace.Int("bytes", int64(len(out))))
}

// stage records a handler stage that began at t0 and ends now: in its
// histogram, and as a span when the request is traced.
func (s *Server) stage(tr *trace.Trace, h *metrics.Histogram, name string, t0 time.Time, attrs ...trace.Attr) {
	d := time.Since(t0)
	h.ObserveDuration(d)
	tr.Span(name, t0, d, 0, attrs...)
}

// executeBatched runs the request's input vectors through the scheduler
// as one call with compile as its compile step, under the request's
// context — chunks not started when the client goes away (a hedge
// loser, say) are skipped and free their queue slots. It reports false
// after answering the request itself when every vector was turned away
// before execution: full-queue and draining map to 429/503, a
// compilation failure to 422. Partial admission stays a 200 with
// per-item errors, so a burst sheds its overflow without losing the
// work already queued.
func (s *Server) executeBatched(w http.ResponseWriter, r *http.Request, compile func() (*compiler.Compiled, error), req *ExecuteRequest, resp *ExecuteResponse, tr *trace.Trace) bool {
	results, errs := s.sch.SubmitManyTraced(r.Context(), compile, req.Inputs, tr)
	admitted, anyOK := false, false
	var compileErr *sched.CompileError
	for _, err := range errs {
		switch {
		case err == nil:
			admitted, anyOK = true, true
		case !errors.Is(err, sched.ErrQueueFull) && !errors.Is(err, sched.ErrClosed):
			admitted = true
			errors.As(err, &compileErr)
		}
	}
	if !admitted && len(req.Inputs) > 0 {
		if errors.Is(errs[0], sched.ErrClosed) {
			s.fail(w, "server draining", http.StatusServiceUnavailable)
		} else {
			s.fail(w, "queue full: "+errs[0].Error(), http.StatusTooManyRequests)
		}
		return false
	}
	if compileErr != nil && !anyOK {
		s.fail(w, "compile: "+compileErr.Err.Error(), http.StatusUnprocessableEntity)
		return false
	}
	for i := range req.Inputs {
		if errs[i] != nil {
			resp.Results[i] = ExecuteResult{Error: errs[i].Error()}
			continue
		}
		resp.Results[i] = ExecuteResult{Outputs: results[i].Outputs, Cycles: results[i].Cycles}
	}
	return true
}
