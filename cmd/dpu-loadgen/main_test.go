package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dpuv2/internal/engine"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

// TestLoadgenSelfSmoke: a short self-targeted run must complete
// requests, record consistent counters and ordered quantiles, and
// produce a JSON-serializable summary.
func TestLoadgenSelfSmoke(t *testing.T) {
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	s, err := run(config{
		self:        true,
		duration:    dur,
		concurrency: 4,
		graphs:      3,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Requests == 0 || s.Completed == 0 {
		t.Fatalf("no load generated: %+v", s)
	}
	if s.TransportErrors != 0 || len(s.HTTPErrors) != 0 {
		t.Errorf("errors against a healthy in-process server: %+v", s)
	}
	// Every vector of every 200 is accounted for: either completed or an
	// itemized per-vector error (e.g. overflow on mul-heavy graphs with
	// Gaussian inputs — a loadgen feature, it exercises the error path).
	if s.Completed+s.FailedVectors != s.Requests*2 {
		t.Errorf("completed %d + failed %d != requests×2 = %d", s.Completed, s.FailedVectors, s.Requests*2)
	}
	if s.Latency.Count != uint64(s.Requests) {
		t.Errorf("latency count %d != requests %d", s.Latency.Count, s.Requests)
	}
	if s.Latency.P50 <= 0 || s.Latency.P50 > s.Latency.P99 || s.Latency.P99 > s.Latency.P999 {
		t.Errorf("latency quantiles inconsistent: %+v", s.Latency)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("summary not JSON-serializable: %v", err)
	}
}

// TestTraceEvery: by default no request carries a traceparent and no
// slow trace is reported; with -trace-every N, the first of every N
// requests of each client carries one, and the slowest rows (at most
// slowest of them) name only those.
func TestTraceEvery(t *testing.T) {
	for _, every := range []int{0, 1, 3} {
		srv := serve.New(engine.New(engine.Options{}), serve.Options{})
		var mu sync.Mutex
		sent, traced := 0, map[string]bool{}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			sent++
			if id, _, ok := trace.ParseTraceparent(r.Header.Get(trace.Header)); ok {
				traced[id.String()] = true
			}
			mu.Unlock()
			srv.Handler().ServeHTTP(w, r)
		}))
		s, err := run(config{
			url:         ts.URL,
			duration:    200 * time.Millisecond,
			concurrency: 1,
			graphs:      2,
			traceEvery:  every,
		}, io.Discard)
		ts.Close()
		srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if every > 0 {
			want = (sent + every - 1) / every
		}
		if len(traced) != want {
			t.Errorf("-trace-every %d: %d of %d requests traced, want %d", every, len(traced), sent, want)
		}
		if want := min(len(traced), slowest); len(s.SlowestAdmitted) != want {
			t.Errorf("-trace-every %d: %d slow rows for %d traced requests, want %d", every, len(s.SlowestAdmitted), len(traced), want)
		}
		for _, r := range s.SlowestAdmitted {
			if !traced[r.TraceID] {
				t.Errorf("-trace-every %d: slow row %s was never sent", every, r.TraceID)
			}
		}
	}
}

func TestBuildPopulationDeterministic(t *testing.T) {
	a := buildPopulation(4, 7)
	b := buildPopulation(4, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("population not deterministic at %d", i)
		}
	}
	if a[0].text == buildPopulation(4, 8)[0].text {
		t.Error("different seeds produced identical graphs")
	}
	for i, tgt := range a {
		if tgt.nIn == 0 || tgt.text == "" {
			t.Errorf("target %d malformed: %+v", i, tgt)
		}
	}
}

// TestRefusedConnectionKeepsAdmittedLatencyClean is the regression test
// for the latency-accounting bugfix: a run against a dead endpoint must
// report ZERO admitted-latency samples — every duration (including the
// client's connect failures) belongs to error_latency_ns. Before the
// split, those error durations were folded into the admitted histogram
// and poisoned its p99.
func TestRefusedConnectionKeepsAdmittedLatencyClean(t *testing.T) {
	// A listener bound and immediately closed: connections are refused
	// fast, on a port nothing else can be using.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()

	s, err := run(config{
		url:         url,
		duration:    200 * time.Millisecond,
		concurrency: 2,
		graphs:      2,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Requests == 0 || s.TransportErrors == 0 {
		t.Fatalf("refused-connection run made no attempts: %+v", s)
	}
	if s.Completed != 0 {
		t.Fatalf("completed %d vectors against a closed port", s.Completed)
	}
	if s.Latency.Count != 0 {
		t.Errorf("admitted-latency histogram has %d samples from a run with zero admitted requests", s.Latency.Count)
	}
	if s.ErrorLatency.Count != uint64(s.Requests) {
		t.Errorf("error-latency count %d != requests %d", s.ErrorLatency.Count, s.Requests)
	}
}

// TestSheddingGoesToErrorLatency pins the other half of the accounting
// split: non-200 responses (a draining server's 503s) are error-path
// latency, not admitted latency.
func TestSheddingGoesToErrorLatency(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	s, err := run(config{
		url:         ts.URL,
		duration:    200 * time.Millisecond,
		concurrency: 2,
		graphs:      2,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.HTTPErrors["503"] == 0 {
		t.Fatalf("no 503s recorded: %+v", s)
	}
	if s.Latency.Count != 0 {
		t.Errorf("admitted-latency histogram has %d samples, all responses were 503", s.Latency.Count)
	}
	if s.ErrorLatency.Count != uint64(s.Requests) {
		t.Errorf("error-latency count %d != requests %d", s.ErrorLatency.Count, s.Requests)
	}
}
