package gateway

// End-to-end trace propagation: one traceparent-carrying request
// through gateway → backend leaves a trace on BOTH tiers under the same
// trace ID — the gateway's with route/forward spans, the backend's with
// the scheduler's stage decomposition.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

func findTrace(recs []*trace.Record, id string) *trace.Record {
	for _, r := range recs {
		if r.TraceID == id {
			return r
		}
	}
	return nil
}

// onlyTrace is findTrace that also fails t unless exactly one record
// carries id and its spans cover every stage in stages.
func onlyTrace(t *testing.T, side string, recs []*trace.Record, id string, stages ...string) *trace.Record {
	t.Helper()
	var rec *trace.Record
	n := 0
	for _, r := range recs {
		if r.TraceID == id {
			rec, n = r, n+1
		}
	}
	if n != 1 {
		t.Fatalf("%s retained %d traces for %s, want 1", side, n, id)
	}
	for _, st := range stages {
		if findStage(rec, st) == nil {
			t.Fatalf("%s trace has no %s span: %+v", side, st, rec.Spans)
		}
	}
	return rec
}

func findStage(rec *trace.Record, stage string) *trace.SpanRecord {
	for i := range rec.Spans {
		if rec.Spans[i].Stage == stage {
			return &rec.Spans[i]
		}
	}
	return nil
}

func TestGatewayTraceEndToEnd(t *testing.T) {
	b := newTestBackend(t)
	gw := newTestGateway(t, Options{Backends: []string{b.ts.URL}})
	gw.tracer.Sample() // spend the always-sampled first slot: only header-carrying requests trace
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	id := trace.NewID()
	body, err := json.Marshal(serve.ExecuteRequest{
		Graph:  "input\ninput\nadd 0 1\nconst 3\nmul 2 3\n",
		Inputs: [][]float64{{2, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, front.URL+"/execute", bytes.NewReader(body))
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

	// Gateway side: one record under the pinned ID, with route and
	// forward under the gateway's root span.
	grec := onlyTrace(t, "gateway", gw.tracer.Traces(0, ""), id.String(), "gateway", "route", "forward")
	if grec.Service != "gateway" {
		t.Fatalf("gateway trace service %q", grec.Service)
	}
	if rsp := findStage(grec, "route"); rsp == nil || rsp.Attrs["owner"] != b.ts.URL {
		t.Fatalf("route span %+v, want owner %s", rsp, b.ts.URL)
	}
	fsp := findStage(grec, "forward")
	if fsp == nil {
		t.Fatalf("no forward span: %+v", grec.Spans)
	}
	if fsp.Attrs["backend"] != b.ts.URL || fsp.Attrs["status"] != int64(http.StatusOK) {
		t.Fatalf("forward attrs %+v, want backend %s status 200", fsp.Attrs, b.ts.URL)
	}

	// Backend side: the SAME trace ID (the gateway re-stamps the header
	// with its own parent span but never a new trace), decomposed into
	// the scheduler's stage windows.
	hres, err := http.Get(b.ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var backend trace.TracesResponse
	err = json.NewDecoder(hres.Body).Decode(&backend)
	hres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	brec := onlyTrace(t, "backend", backend.Traces, id.String(),
		"serve", "decode", "parse", "queue_wait", "execute", "encode")
	if brec.Service != "serve" {
		t.Fatalf("backend trace service %q", brec.Service)
	}
	var sum int64
	if sp := findStage(brec, "linger"); sp != nil {
		t.Fatalf("backend trace carries a linger span: %+v", brec.Spans)
	}
	for _, stage := range []string{"queue_wait", "execute"} {
		sum += findStage(brec, stage).DurationNS
	}
	if sum > brec.DurationNS {
		t.Fatalf("stage sum %d exceeds backend request duration %d", sum, brec.DurationNS)
	}
	// The hop nests: the backend's whole request fits inside the
	// gateway's forward window (same wall clock, same trace).
	if brec.DurationNS > grec.DurationNS {
		t.Fatalf("backend trace %dns longer than gateway's %dns", brec.DurationNS, grec.DurationNS)
	}
}

// TestGatewayStripsInvalidTraceparent: a malformed client header is not
// forwarded and, on an unsampled request, starts no trace.
func TestGatewayStripsInvalidTraceparent(t *testing.T) {
	var gotHeader string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/execute" {
			gotHeader = r.Header.Get(trace.Header)
		}
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"results":[]}`))
	}))
	defer backend.Close()
	gw := newTestGateway(t, Options{Backends: []string{backend.URL}})
	gw.tracer.Sample() // spend the always-sampled first slot: the next request is unsampled
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	body, _ := json.Marshal(serve.ExecuteRequest{
		Graph:  "input\ninput\nadd 0 1\n",
		Inputs: [][]float64{{1, 2}},
	})
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/execute", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "00-NOTHEX-beef-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if gotHeader != "" {
		t.Fatalf("malformed traceparent forwarded as %q", gotHeader)
	}
	if recs := gw.tracer.Traces(0, ""); len(recs) != 0 {
		t.Fatalf("malformed header started %d traces", len(recs))
	}
}
