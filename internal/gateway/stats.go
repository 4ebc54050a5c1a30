package gateway

// Fleet /stats aggregation: the gateway fetches every backend's /stats
// concurrently and merges the engine/sched/http sections into one view,
// so operators read the fleet the way they read one dpu-serve. Counters
// sum; latency and batch-size quantiles are NOT averaged — each backend
// ships its full histogram snapshot (metrics.Snapshot) and the gateway
// merges buckets (Snapshot.Merge), which is exact because every
// histogram shares the same fixed bucket boundaries.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"dpuv2/internal/metrics"
	"dpuv2/internal/serve"
)

// GatewayStats is the gateway's own section of GET /stats. The `prom`
// tags declare the gateway's /metrics families (see package metrics).
type GatewayStats struct {
	// Backends/Healthy/Draining/Down count configured backends by their
	// last probed state (unknown backends count as down).
	Backends int `json:"backends"`
	Healthy  int `json:"healthy"`
	Draining int `json:"draining"`
	Down     int `json:"down"`
	// Proxied counts /execute requests answered from a backend; Rejected
	// counts those the gateway answered 502/503 itself.
	Proxied  int64 `json:"proxied" prom:"dpu_gateway_proxied_total"`
	Rejected int64 `json:"rejected" prom:"dpu_gateway_rejected_total"`
	// Hedges counts hedge copies launched, HedgeWins those that answered
	// first; Failovers counts immediate re-routes after a hard failure.
	Hedges    int64 `json:"hedges" prom:"dpu_gateway_hedges_total"`
	HedgeWins int64 `json:"hedge_wins" prom:"dpu_gateway_hedge_wins_total"`
	Failovers int64 `json:"failovers" prom:"dpu_gateway_failovers_total"`
	// HedgeDelayNS is the current p99-derived hedge trigger.
	HedgeDelayNS int64 `json:"hedge_delay_ns" prom:"dpu_gateway_hedge_delay_ns"`
	// Latency is gateway-side end-to-end request time (ns); LatencyHist
	// is the bucket snapshot behind it.
	Latency     metrics.Summary  `json:"latency_ns"`
	LatencyHist metrics.Snapshot `json:"latency_hist" prom:"dpu_gateway_request_latency_ns"`
}

// BackendStatus is one backend's row in GET /stats.
type BackendStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Error is the last probe failure ("" when healthy).
	Error string `json:"error,omitempty"`
	// Stats is the backend's own /stats, absent when unreachable.
	Stats *serve.StatsResponse `json:"stats,omitempty"`
}

// FleetStatsResponse is the gateway's GET /stats body.
type FleetStatsResponse struct {
	Gateway GatewayStats `json:"gateway"`
	// Fleet is the merged view over every backend that answered /stats,
	// shaped exactly like one dpu-serve's response. Absent when none did.
	Fleet *serve.StatsResponse `json:"fleet,omitempty"`
	// Backends is the per-backend breakdown behind Fleet.
	Backends []BackendStatus `json:"backends"`
}

// Stats builds the aggregated fleet view, fetching every backend's
// /stats concurrently (bounded by the health timeout — a stats poll must
// not hang on a wedged backend).
func (g *Gateway) Stats(ctx context.Context) FleetStatsResponse {
	out := FleetStatsResponse{
		Gateway:  g.ownStats(),
		Backends: make([]BackendStatus, len(g.backends)),
	}
	var wg sync.WaitGroup
	for i, b := range g.backends {
		st := b.getState()
		switch st {
		case stateHealthy:
			out.Gateway.Healthy++
		case stateDraining:
			out.Gateway.Draining++
		default:
			out.Gateway.Down++
		}
		row := &out.Backends[i]
		row.Addr = b.addr
		row.State = st.String()
		if e, _ := b.lastErr.Load().(string); e != "" && st != stateHealthy {
			row.Error = e
		}
		if st == stateDown || st == stateUnknown {
			continue // don't block the poll on a dead backend
		}
		wg.Add(1)
		go func(b *backend, row *BackendStatus) {
			defer wg.Done()
			st, err := g.fetchStats(ctx, b)
			if err != nil {
				row.Error = err.Error()
				return
			}
			row.Stats = st
		}(b, row)
	}
	wg.Wait()
	for _, row := range out.Backends {
		if row.Stats == nil {
			continue
		}
		if out.Fleet == nil {
			merged := *row.Stats
			out.Fleet = &merged
			continue
		}
		metrics.Merge(out.Fleet, row.Stats)
	}
	return out
}

// ownStats snapshots the gateway's own counters (the backend state
// counts are filled in by Stats).
func (g *Gateway) ownStats() GatewayStats {
	st := GatewayStats{
		Backends:     len(g.backends),
		Proxied:      g.proxied.Load(),
		Rejected:     g.rejected.Load(),
		Hedges:       g.hedges.Load(),
		HedgeWins:    g.hedgeWins.Load(),
		Failovers:    g.failovers.Load(),
		HedgeDelayNS: int64(g.hedgeDelay()),
		LatencyHist:  g.latency.Snapshot(),
	}
	metrics.Summarize(&st)
	return st
}

// writeBackendUp writes the per-backend health gauges that follow the
// gateway's own families on its /metrics. That body is deliberately not
// the fleet merge: a scraper scrapes every dpu-serve's /metrics itself.
func (g *Gateway) writeBackendUp(p *metrics.PromWriter) {
	for _, b := range g.backends {
		up := int64(0)
		if b.getState() == stateHealthy {
			up = 1
		}
		p.GaugeLabeled("dpu_gateway_backend_up", `backend="`+b.addr+`"`, up)
	}
}

// fetchStats pulls one backend's /stats.
func (g *Gateway) fetchStats(ctx context.Context, b *backend) (*serve.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, g.healthTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.Stats(r.Context()))
}
