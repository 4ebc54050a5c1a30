package gateway

// GET /metrics: the gateway's OWN state in Prometheus text form —
// routing counters, hedge/failover activity, end-to-end latency buckets
// (the `prom` tags of GatewayStats) and per-backend health gauges.
// Deliberately not the fleet merge: a scraper should scrape every
// dpu-serve's /metrics directly and let the metrics backend aggregate;
// GET /stats remains the endpoint that merges for humans.

import (
	"bytes"
	"net/http"

	"dpuv2/internal/metrics"
)

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var buf bytes.Buffer
	p := metrics.NewPromWriter(&buf)
	st := g.ownStats()
	metrics.WriteProm(p, &st)
	for _, b := range g.backends {
		up := int64(0)
		if b.getState() == stateHealthy {
			up = 1
		}
		p.GaugeLabeled("dpu_gateway_backend_up", `backend="`+b.addr+`"`, up)
	}
	if err := p.Err(); err != nil {
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	w.Write(buf.Bytes())
}
