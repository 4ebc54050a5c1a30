package serve

// GET /metrics: the Prometheus text exposition of the same state GET
// /stats reports as JSON. /stats carries pre-digested quantile summaries
// for humans and the gateway's fleet merge; /metrics carries the raw
// cumulative-bucket form a scraper aggregates itself. Both are built
// from the same metrics.Snapshot values, so a quantile re-derived from
// the scraped buckets matches the /stats summary (conservatively — see
// metrics.Snapshot.Quantile). The families are the `prom` tags of
// StatsResponse's sections.

import (
	"bytes"
	"net/http"

	"dpuv2/internal/metrics"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := s.Stats()
	var buf bytes.Buffer
	p := metrics.NewPromWriter(&buf)
	metrics.WriteProm(p, &st)
	if err := p.Err(); err != nil {
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	w.Write(buf.Bytes())
}
