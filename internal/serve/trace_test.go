package serve

// Tests for the serving tier's observability surface: /metrics exposes
// a parseable Prometheus text rendering of the same counters as /stats,
// and /traces serves request-scoped traces — joined to the caller's
// traceparent when one is sent, sampled otherwise.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"dpuv2/internal/metrics"
	"dpuv2/internal/metrics/promtest"
	"dpuv2/internal/trace"
)

func execRequest() ExecuteRequest {
	return ExecuteRequest{
		Graph:  "input\ninput\nadd 0 1\nconst 3\nmul 2 3\n",
		Inputs: [][]float64{{2, 5}},
	}
}

// TestServeMetricsExposition: after serving a request, /metrics parses
// as Prometheus text (histogram coherence is validated by the parser)
// and carries the request/scheduler/engine families /stats reports.
func TestServeMetricsExposition(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	if resp, _ := postExecute(t, srv, execRequest()); resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status = %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Fatalf("content type %q", ct)
	}
	fams, err := promtest.Parse(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	byName := map[string]*promtest.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, name := range []string{
		"dpu_http_requests_total",
		"dpu_http_request_latency_ns",
		"dpu_sched_completed_total",
		"dpu_sched_stage_latency_ns",
		"dpu_engine_executions_total",
	} {
		if byName[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	if f := byName["dpu_http_requests_total"]; f != nil && f.Samples[0].Value < 1 {
		t.Errorf("dpu_http_requests_total = %v after a request", f.Samples[0].Value)
	}
	// The stage decomposition is one family labeled by stage.
	if f := byName["dpu_sched_stage_latency_ns"]; f != nil {
		stages := map[string]bool{}
		for _, s := range f.Samples {
			stages[s.Labels["stage"]] = true
		}
		for _, st := range []string{"queue_wait", "execute"} {
			if !stages[st] {
				t.Errorf("stage %q missing from dpu_sched_stage_latency_ns", st)
			}
		}
		if stages["linger"] {
			t.Error(`dpu_sched_stage_latency_ns still carries stage="linger"`)
		}
	}
	post, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", post.StatusCode)
	}
}

// TestServeTraceJoinsTraceparent: a request carrying a traceparent is
// always traced under that exact trace ID, and the retained record
// decomposes the request into decode / parse / stage / encode spans.
// The parse span says whether the parse memo answered: not for the
// first sight of a text, and for a second one.
func TestServeTraceJoinsTraceparent(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	s.tracer.Sample() // spend the always-sampled first slot: only header-carrying requests trace

	body, err := json.Marshal(execRequest())
	if err != nil {
		t.Fatal(err)
	}
	send := func(id trace.ID) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/execute", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(trace.Header, trace.Traceparent(id, trace.NewSpanID()))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("execute status = %d", resp.StatusCode)
		}
	}
	id := trace.NewID()
	send(id)

	recs := s.tracer.Traces(0, "")
	if len(recs) != 1 {
		t.Fatalf("got %d traces, want exactly the header-carrying request", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != id.String() {
		t.Fatalf("trace ID %s, want the caller's %s", rec.TraceID, id)
	}
	if rec.Service != "serve" {
		t.Fatalf("service %q, want serve", rec.Service)
	}
	for _, stage := range []string{"decode", "parse", "queue_wait", "execute", "encode"} {
		if !hasStage(rec, stage) {
			t.Errorf("span %q missing: %+v", stage, rec.Spans)
		}
	}
	// Stage windows never exceed the end-to-end request duration.
	var sum int64
	for _, sp := range rec.Spans {
		if sp.Stage == "queue_wait" || sp.Stage == "execute" {
			sum += sp.DurationNS
		}
	}
	if sum > rec.DurationNS {
		t.Fatalf("stage sum %d exceeds request duration %d", sum, rec.DurationNS)
	}

	// The mounted handler serves the same record as JSON.
	hres, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var out trace.TracesResponse
	if err := json.NewDecoder(hres.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 1 || out.Traces[0].TraceID != id.String() {
		t.Fatalf("/traces = %+v, want the joined trace", out)
	}

	second := trace.NewID()
	send(second)
	hits := map[string]any{}
	for _, rec := range s.tracer.Traces(0, "") {
		for _, sp := range rec.Spans {
			if sp.Stage == "parse" {
				hits[rec.TraceID] = sp.Attrs["memo_hit"]
			}
		}
	}
	if hits[id.String()] != false || hits[second.String()] != true {
		t.Errorf("parse span memo_hit %v on the first sight of the text and %v on the second, want false and true",
			hits[id.String()], hits[second.String()])
	}
}

func hasStage(rec *trace.Record, stage string) bool {
	for i := range rec.Spans {
		if rec.Spans[i].Stage == stage {
			return true
		}
	}
	return false
}
