package serve

// GET /metrics: the Prometheus text exposition of the same state GET
// /stats reports as JSON. /stats carries pre-digested quantile summaries
// for humans and the gateway's fleet merge; /metrics carries the raw
// cumulative-bucket form a scraper aggregates itself. Both are built
// from the same metrics.Snapshot values, so a quantile re-derived from
// the scraped buckets matches the /stats summary (conservatively — see
// metrics.Snapshot.Quantile).

import (
	"bytes"
	"net/http"

	"dpuv2/internal/metrics"
	"dpuv2/internal/sched"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := s.Stats()
	var buf bytes.Buffer
	p := metrics.NewPromWriter(&buf)

	// HTTP layer.
	p.Counter("dpu_http_requests_total", st.HTTP.Requests)
	p.Counter("dpu_http_errors_total", st.HTTP.Errors)
	p.Histogram("dpu_http_request_latency_ns", "", st.HTTP.LatencyHist)

	// Scheduler layer.
	p.Counter("dpu_sched_submitted_total", st.Sched.Submitted)
	p.Counter("dpu_sched_rejected_total", st.Sched.Rejected)
	p.Counter("dpu_sched_completed_total", st.Sched.Completed)
	p.Counter("dpu_sched_failed_total", st.Sched.Failed)
	p.Counter("dpu_sched_batches_total", st.Sched.Batches)
	p.Gauge("dpu_sched_queue_depth", int64(st.Sched.QueueDepth))
	p.Gauge("dpu_sched_queue_limit", int64(st.Sched.QueueLimit))
	p.Histogram("dpu_sched_batch_size", "", st.Sched.BatchSizeHist)
	p.Histogram("dpu_sched_latency_ns", "", st.Sched.LatencyHist)
	// One family, one series per stage: the decomposition is a label so
	// a scraper sums/compares stages without name gymnastics.
	p.Histogram("dpu_sched_stage_latency_ns", `stage="`+sched.StageQueueWait+`"`, st.Sched.QueueWaitHist)
	p.Histogram("dpu_sched_stage_latency_ns", `stage="`+sched.StageExecute+`"`, st.Sched.ExecuteHist)

	// Engine layer.
	p.Counter("dpu_engine_cache_hits_total", st.Engine.Hits)
	p.Counter("dpu_engine_cache_misses_total", st.Engine.Misses)
	p.Counter("dpu_engine_cache_evictions_total", st.Engine.Evictions)
	p.Gauge("dpu_engine_cached_programs", int64(st.Engine.Cached))
	p.Gauge("dpu_engine_inflight_executions", st.Engine.InFlight)
	p.Counter("dpu_engine_executions_total", st.Engine.Executions)
	p.Counter("dpu_engine_store_hits_total", st.Engine.StoreHits)
	p.Counter("dpu_engine_store_misses_total", st.Engine.StoreMisses)
	p.Counter("dpu_engine_store_errors_total", st.Engine.StoreErrors)
	p.Counter("dpu_engine_verified_total", st.Engine.Verified)
	p.Counter("dpu_engine_verify_rejects_total", st.Engine.VerifyRejects)
	p.Counter("dpu_engine_tuned_hits_total", st.Engine.TunedHits)
	p.Counter("dpu_engine_tunes_total", st.Engine.Tunes)
	p.Counter("dpu_engine_tune_errors_total", st.Engine.TuneErrors)
	p.Gauge("dpu_engine_tunes_inflight", st.Engine.TuneInFlight)
	p.Gauge("dpu_engine_decisions", int64(st.Engine.Decisions))

	if err := p.Err(); err != nil {
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	w.Write(buf.Bytes())
}
