package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpuv2/internal/serve"
)

// tally counts checked operations. An operation fails on a transport
// error, a non-200 status, a per-item error or a value that differs
// from the oracle in any bit.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first five
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < 5 {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < 5 {
			t.Failures = append(t.Failures, f)
		}
	}
}

// phase is what one closed-loop phase observed. Latencies, payload and
// cycle counts cover correct requests only.
type phase struct {
	tally
	elapsed time.Duration
	latMS   []float64 // per-request wall time in the driver
	payload int64     // request + response body bytes
	cycles  int64     // sum of the answers' cycles fields
	vectors int64
}

// driver is the closed-loop load generator: conns callers, each on its
// own keep-alive connection, each waiting for its reply before sending
// the next request. It sends no traceparent header, so the server's
// default sampling applies — the unsampled hot path. The request stream
// continues across phases of one server, which keeps serve_churn's
// reuse distance intact from warm-up into the measured phase.
type driver struct {
	w      *workload
	url    string
	conns  int
	client *http.Client
	next   atomic.Int64
}

func newDriver(w *workload, srv *server, conns int) *driver {
	return &driver{
		w: w, url: srv.base + "/execute", conns: conns,
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns},
		},
	}
}

// run sends requests until count have been issued (count > 0) or dur
// has passed (count == 0), whichever the caller chose, or ctx ends.
func (d *driver) run(ctx context.Context, count int, dur time.Duration) phase {
	var issued atomic.Int64
	parts := make([]phase, d.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for ctx.Err() == nil {
				if count == 0 && time.Since(start) >= dur {
					return
				}
				if n := issued.Add(1); count > 0 && n > int64(count) {
					return
				}
				r := &d.w.reqs[int(d.next.Add(1)-1)%len(d.w.reqs)]
				d.one(ctx, r, p)
			}
		}(&parts[c])
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p.tally)
		out.latMS = append(out.latMS, p.latMS...)
		out.payload += p.payload
		out.cycles += p.cycles
		out.vectors += p.vectors
	}
	d.client.CloseIdleConnections()
	return out
}

func (d *driver) one(ctx context.Context, r *request, p *phase) {
	p.Attempted++
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(r.body))
	if err != nil {
		p.fail("build request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		p.fail("transport: %v", err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		p.fail("read response: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		p.fail("%s: HTTP %d: %.120s", r.graph.g.Name, resp.StatusCode, body)
		return
	}
	cycles, err := checkResponse(body, r)
	if err != nil {
		p.fail("%s: %v", r.graph.g.Name, err)
		return
	}
	p.latMS = append(p.latMS, float64(lat)/1e6)
	p.payload += int64(len(r.body) + len(body))
	p.cycles += cycles
	p.vectors += int64(len(r.inputs))
}

// checkResponse compares every answered vector of an /execute reply
// with the oracle, bit for bit, and returns the sum of the cycles
// fields.
func checkResponse(body []byte, r *request) (cycles int64, err error) {
	var resp serve.ExecuteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Results) != len(r.inputs) {
		return 0, fmt.Errorf("%d results for %d input vectors", len(resp.Results), len(r.inputs))
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			return 0, fmt.Errorf("vector %d: per-item error: %s", i, res.Error)
		}
		if !sameBits(res.Outputs, r.want[i]) {
			return 0, fmt.Errorf("vector %d: outputs %v, oracle %v", i, res.Outputs, r.want[i])
		}
		cycles += int64(res.Cycles)
	}
	return cycles, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
