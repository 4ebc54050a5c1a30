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

	"dpuv2/internal/engine"
	"dpuv2/internal/metrics"
	"dpuv2/internal/serve"
)

// GatewayStats is the gateway's own section of GET /stats.
type GatewayStats struct {
	// Backends/Healthy/Draining/Down count configured backends by their
	// last probed state (unknown backends count as down).
	Backends int `json:"backends"`
	Healthy  int `json:"healthy"`
	Draining int `json:"draining"`
	Down     int `json:"down"`
	// Proxied counts /execute requests answered from a backend; Rejected
	// counts those the gateway answered 502/503 itself.
	Proxied  int64 `json:"proxied"`
	Rejected int64 `json:"rejected"`
	// Hedges counts hedge copies launched, HedgeWins those that answered
	// first; Failovers counts immediate re-routes after a hard failure.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Failovers int64 `json:"failovers"`
	// HedgeDelayNS is the current p99-derived hedge trigger.
	HedgeDelayNS int64 `json:"hedge_delay_ns"`
	// Latency is gateway-side end-to-end request time (ns).
	Latency metrics.Summary `json:"latency_ns"`
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
		Gateway: GatewayStats{
			Backends:     len(g.backends),
			Proxied:      g.proxied.Load(),
			Rejected:     g.rejected.Load(),
			Hedges:       g.hedges.Load(),
			HedgeWins:    g.hedgeWins.Load(),
			Failovers:    g.failovers.Load(),
			HedgeDelayNS: int64(g.hedgeDelay()),
			Latency:      g.latency.Summary(),
		},
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
		mergeStats(out.Fleet, row.Stats)
	}
	return out
}

// fetchStats pulls one backend's /stats.
func (g *Gateway) fetchStats(ctx context.Context, b *backend) (*serve.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, g.opts.HealthTimeout)
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

// mergeStats folds src into dst: counters sum, histogram snapshots merge
// exactly, and the merged summaries are recomputed from the merged
// snapshots (never by combining quantiles).
func mergeStats(dst *serve.StatsResponse, src *serve.StatsResponse) {
	mergeEngine(&dst.Engine, &src.Engine)

	d, s := &dst.Sched, &src.Sched
	d.Submitted += s.Submitted
	d.Rejected += s.Rejected
	d.Completed += s.Completed
	d.Failed += s.Failed
	d.Batches += s.Batches
	d.QueueDepth += s.QueueDepth
	d.QueueLimit += s.QueueLimit
	d.BatchSizeHist = d.BatchSizeHist.Merge(s.BatchSizeHist)
	d.LatencyHist = d.LatencyHist.Merge(s.LatencyHist)
	d.QueueWaitHist = d.QueueWaitHist.Merge(s.QueueWaitHist)
	d.ExecuteHist = d.ExecuteHist.Merge(s.ExecuteHist)
	d.BatchSize = d.BatchSizeHist.Summary()
	d.Latency = d.LatencyHist.Summary()
	d.QueueWait = d.QueueWaitHist.Summary()
	d.Execute = d.ExecuteHist.Summary()

	dst.HTTP.Requests += src.HTTP.Requests
	dst.HTTP.Errors += src.HTTP.Errors
	dst.HTTP.LatencyHist = dst.HTTP.LatencyHist.Merge(src.HTTP.LatencyHist)
	dst.HTTP.Latency = dst.HTTP.LatencyHist.Summary()

	t, u := &dst.Tune, &src.Tune
	t.Enabled = t.Enabled || u.Enabled
	t.Decisions += u.Decisions
	t.TunedHits += u.TunedHits
	t.Tunes += u.Tunes
	t.TuneErrors += u.TuneErrors
	t.InFlight += u.InFlight
	t.StoreTuned += u.StoreTuned
	// Workloads are per-fingerprint rows; with shard affinity they are
	// disjoint across backends, so the fleet view is the concatenation.
	t.Workloads = append(t.Workloads, u.Workloads...)
}

// mergeEngine sums the engine counters.
func mergeEngine(d *engine.Stats, s *engine.Stats) {
	d.Hits += s.Hits
	d.Misses += s.Misses
	d.Evictions += s.Evictions
	d.Cached += s.Cached
	d.InFlight += s.InFlight
	d.Executions += s.Executions
	d.StoreHits += s.StoreHits
	d.StoreMisses += s.StoreMisses
	d.StoreErrors += s.StoreErrors
	d.Preloaded += s.Preloaded
	d.Verified += s.Verified
	d.VerifyRejects += s.VerifyRejects
	d.TunedHits += s.TunedHits
	d.StoreTuned += s.StoreTuned
	d.Tunes += s.Tunes
	d.TuneErrors += s.TuneErrors
	d.TuneInFlight += s.TuneInFlight
	d.Decisions += s.Decisions
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.Stats(r.Context()))
}
