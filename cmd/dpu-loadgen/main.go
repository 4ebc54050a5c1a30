// Command dpu-loadgen is the closed-loop load generator for dpu-serve,
// in the spirit of a k6 workload driver: -c concurrent clients hammer
// POST /execute with a mixed population of random graphs and the tool
// reports a JSON summary (throughput, error counts, latency quantiles).
// Closed loop means each client waits for its response before sending
// the next request, so the offered load self-limits to what the server
// sustains. The population and inputs come from a fixed seed.
//
// Examples:
//
//	dpu-loadgen -url http://localhost:8080 -c 16 -duration 10s -json
//	dpu-loadgen -self -c 8 -graphs 4 -duration 5s
//
// -self serves in-process (its own engine + batching scheduler), which
// makes the tool a one-command smoke test: it exits non-zero if no
// request completes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/metrics"
	"dpuv2/internal/serve"
	"dpuv2/internal/trace"
)

// Fixed shape of the generated load: input vectors per request, the
// seed of the graph population and of the inputs, and how many of the
// slowest traced admitted requests the summary lists.
const (
	inputsPerRequest = 2
	seed             = 1
	slowest          = 5
)

type config struct {
	url         string
	self        bool
	duration    time.Duration
	concurrency int
	graphs      int
	traceEvery  int
	jsonOut     bool
}

// target is one graph of the mixed population, pre-rendered to the wire
// format.
type target struct {
	text string
	nIn  int
}

// buildPopulation renders `n` random DAGs spanning shapes (binary/k-ary,
// deep/wide) — every client draws from the same population, so the
// server's compile cache serves most requests from a hit.
func buildPopulation(n int, seed int64) []target {
	shapes := []dag.RandomConfig{
		{Inputs: 4, Interior: 30, MaxArgs: 2, MulFrac: 0.3},
		{Inputs: 6, Interior: 40, MaxArgs: 3, MulFrac: 0.5},
		{Inputs: 3, Interior: 50, MaxArgs: 2, MulFrac: 0.2, Window: 4},
		{Inputs: 8, Interior: 35, MaxArgs: 2, MulFrac: 0.4, Window: 64},
	}
	targets := make([]target, n)
	for i := range targets {
		shape := shapes[i%len(shapes)]
		shape.Seed = seed + int64(i)
		g := dag.RandomGraph(shape)
		var sb strings.Builder
		if err := dag.Write(&sb, g); err != nil {
			panic(err) // random graphs always serialize
		}
		targets[i] = target{text: sb.String(), nIn: len(g.Inputs())}
	}
	return targets
}

// summary is the JSON report.
type summary struct {
	DurationSec float64 `json:"duration_sec"`
	Clients     int     `json:"clients"`
	// Requests counts HTTP round trips; Completed/FailedVectors count
	// individual input vectors inside 200 responses.
	Requests        int64            `json:"requests"`
	Completed       int64            `json:"completed"`
	FailedVectors   int64            `json:"failed_vectors"`
	HTTPErrors      map[string]int64 `json:"http_errors,omitempty"`
	TransportErrors int64            `json:"transport_errors"`
	AchievedQPS     float64          `json:"achieved_qps"`
	// Latency is per-request wall time in nanoseconds of ADMITTED
	// traffic only (HTTP 200). Error-path durations live in
	// ErrorLatency: a 30s client timeout against a dead server is not a
	// p99 of the service, and folding the two histograms together (as
	// this tool once did) poisons every reported quantile.
	Latency metrics.Summary `json:"latency_ns"`
	// ErrorLatency is per-request wall time of requests that failed in
	// transport or were refused with a non-200 status (429/503 shedding,
	// connect errors, client timeouts).
	ErrorLatency metrics.Summary `json:"error_latency_ns"`
	// SlowestAdmitted lists the K slowest admitted requests among those
	// the generator stamped with a traceparent (-trace-every), so the
	// server traced each of them — the bridge from a reported tail to GET
	// /traces on the server side: take a trace_id from here, find the
	// matching trace there, read where the time went.
	SlowestAdmitted []SlowRequest `json:"slowest_admitted,omitempty"`
}

// SlowRequest is one row of summary.SlowestAdmitted.
type SlowRequest struct {
	TraceID    string `json:"trace_id"`
	DurationNS int64  `json:"duration_ns"`
}

func run(cfg config, logw io.Writer) (summary, error) {
	targets := buildPopulation(cfg.graphs, seed)

	url := cfg.url
	if cfg.self {
		eng := engine.New(engine.Options{})
		srv := serve.New(eng, serve.Options{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Drain()
		url = ts.URL
		fmt.Fprintf(logw, "dpu-loadgen: in-process server at %s\n", url)
	}
	if url == "" {
		return summary{}, fmt.Errorf("need -url or -self")
	}

	var (
		hist      metrics.Histogram // admitted (200) request latency
		errHist   metrics.Histogram // transport-error / non-200 latency
		requests  atomic.Int64
		completed atomic.Int64
		failedVec atomic.Int64
		transport atomic.Int64
		statusMu  sync.Mutex
		statuses  = map[string]int64{}
		slowMu    sync.Mutex
		slow      []SlowRequest // K slowest admitted, sorted slowest-first
	)
	// recordSlow keeps the slowest admitted requests by insertion into
	// the small sorted slice — K is single digits, so this beats any heap
	// on both code and cycles.
	recordSlow := func(id string, d time.Duration) {
		slowMu.Lock()
		defer slowMu.Unlock()
		if len(slow) == slowest && int64(d) <= slow[len(slow)-1].DurationNS {
			return
		}
		slow = append(slow, SlowRequest{TraceID: id, DurationNS: int64(d)})
		for j := len(slow) - 1; j > 0 && slow[j].DurationNS > slow[j-1].DurationNS; j-- {
			slow[j], slow[j-1] = slow[j-1], slow[j]
		}
		if len(slow) > slowest {
			slow = slow[:slowest]
		}
	}
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	deadline := start.Add(cfg.duration)

	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 7919*int64(w)))
			for n := 0; time.Now().Before(deadline); n++ {
				tgt := targets[rng.Intn(len(targets))]
				req := serve.ExecuteRequest{Graph: tgt.text, Inputs: make([][]float64, inputsPerRequest)}
				for i := range req.Inputs {
					vec := make([]float64, tgt.nIn)
					for j := range vec {
						vec[j] = rng.NormFloat64()
					}
					req.Inputs[i] = vec
				}
				body, err := json.Marshal(req)
				if err != nil {
					transport.Add(1)
					continue
				}
				hreq, err := http.NewRequest(http.MethodPost, url+"/execute", bytes.NewReader(body))
				if err != nil {
					transport.Add(1)
					continue
				}
				hreq.Header.Set("Content-Type", "application/json")
				// A traceparent makes the server trace the request
				// (header-carrying requests bypass its sampling), so only
				// every traceEvery-th request of a client carries one:
				// tracing all traffic would distort what is measured.
				var traceID trace.ID
				traced := cfg.traceEvery > 0 && n%cfg.traceEvery == 0
				if traced {
					traceID = trace.NewID()
					hreq.Header.Set(trace.Header, trace.Traceparent(traceID, trace.NewSpanID()))
				}
				t0 := time.Now()
				resp, err := client.Do(hreq)
				requests.Add(1)
				if err != nil {
					errHist.ObserveDuration(time.Since(t0))
					transport.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					errHist.ObserveDuration(time.Since(t0))
					statusMu.Lock()
					statuses[fmt.Sprint(resp.StatusCode)]++
					statusMu.Unlock()
					continue
				}
				var out serve.ExecuteResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				// Drain the body fully so the keep-alive connection is
				// reusable; closing early forces a reconnect per request.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// Latency is whole-request wall time: headers, body
				// transfer and decode — not time-to-first-byte.
				d := time.Since(t0)
				hist.ObserveDuration(d)
				if traced {
					recordSlow(traceID.String(), d)
				}
				if err != nil {
					transport.Add(1)
					continue
				}
				for _, r := range out.Results {
					if r.Error != "" {
						failedVec.Add(1)
					} else {
						completed.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	s := summary{
		DurationSec:     elapsed.Seconds(),
		Clients:         cfg.concurrency,
		Requests:        requests.Load(),
		Completed:       completed.Load(),
		FailedVectors:   failedVec.Load(),
		TransportErrors: transport.Load(),
		AchievedQPS:     float64(requests.Load()) / elapsed.Seconds(),
		Latency:         hist.Summary(),
		ErrorLatency:    errHist.Summary(),
		SlowestAdmitted: slow,
	}
	if len(statuses) > 0 {
		s.HTTPErrors = statuses
	}
	return s, nil
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.url, "url", "", "target server base URL (e.g. http://localhost:8080)")
	flag.BoolVar(&cfg.self, "self", false, "serve in-process instead of targeting -url")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "how long to generate load")
	flag.IntVar(&cfg.concurrency, "c", 8, "concurrent closed-loop clients")
	flag.IntVar(&cfg.graphs, "graphs", 4, "distinct random graphs in the population")
	flag.IntVar(&cfg.traceEvery, "trace-every", 0, "send a traceparent, which makes the server trace the request, on every Nth request of each client (0: none)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the summary as JSON")
	flag.Parse()

	s, err := run(cfg, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("requests %d  vectors ok %d  failed %d  transport errors %d\n",
			s.Requests, s.Completed, s.FailedVectors, s.TransportErrors)
		fmt.Printf("achieved %.1f req/s over %.2fs with %d clients\n", s.AchievedQPS, s.DurationSec, s.Clients)
		fmt.Printf("latency p50 %v  p95 %v  p99 %v  p999 %v  max %v (admitted)\n",
			time.Duration(s.Latency.P50), time.Duration(s.Latency.P95),
			time.Duration(s.Latency.P99), time.Duration(s.Latency.P999),
			time.Duration(s.Latency.Max))
		if s.ErrorLatency.Count > 0 {
			fmt.Printf("error-path latency p50 %v  p99 %v over %d requests\n",
				time.Duration(s.ErrorLatency.P50), time.Duration(s.ErrorLatency.P99), s.ErrorLatency.Count)
		}
		for _, sr := range s.SlowestAdmitted {
			fmt.Printf("slow trace %s  %v (look it up on the server's /traces)\n",
				sr.TraceID, time.Duration(sr.DurationNS))
		}
	}
	if s.Completed == 0 {
		log.Fatal("dpu-loadgen: no request completed successfully")
	}
}
