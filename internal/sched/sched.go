// Package sched is the admission layer between concurrent callers and
// the serving engine. A call — one request's input vectors for one
// graph — runs on the caller's own goroutine and never waits for another:
// its vectors are admitted against a bounded queue (ErrQueueFull beyond
// queueLimit vectors, so callers shed load instead of the server queueing
// without bound), the graph is compiled once, and the admitted vectors run in
// MaxBatch-sized chunks through the engine's batch path. A chunk not
// started when the call's context is done fails with the context's error.
// Close drains: new calls fail with ErrClosed, admitted ones finish.
// Calls for the same graph are not merged; DESIGN.md "Scheduling & load"
// has the measurement that retired merging.
package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/metrics"
	"dpuv2/internal/trace"
)

// ErrQueueFull rejects a vector that would exceed queueLimit
// admitted-but-unfinished vectors. Servers map it to 429.
var ErrQueueFull = errors.New("sched: queue full")

// ErrClosed rejects submissions after Close. Servers map it to 503.
var ErrClosed = errors.New("sched: scheduler closed")

// CompileError marks a call failure caused by compilation (as opposed
// to a per-item execution error), so servers can answer 422 instead of
// itemizing. It wraps the compiler's error.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// Backend is what the scheduler needs from the serving engine.
// *engine.Engine satisfies it; tests substitute fakes to hold or count
// executions without real compilation. The scheduler always passes nil
// for cycles: every item of a chunk ran the same static schedule, so
// Result.Cycles is c.Stats.Cycles.
type Backend interface {
	Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error)
	ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error)
}

// Stage names of the per-item latency decomposition, as trace spans and
// histogram labels: QueueWait is admission → start of the item's chunk
// (the call's compile and earlier chunks), Execute the chunk's backend
// window. They are contiguous and sum to the item's latency.
const (
	StageQueueWait = "queue_wait"
	StageExecute   = "execute"
)

// queueLimit bounds admitted-but-unfinished vectors; vectors beyond it
// are rejected with ErrQueueFull.
const queueLimit = 4096

// Options configure a Scheduler; the zero value is a production-ready
// default.
type Options struct {
	// MaxBatch is the chunk size: a call's admitted vectors reach the
	// backend at most this many at a time. Default 32.
	MaxBatch int
}

func (o Options) normalize() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	return o
}

// Result is one completed submission: the sink values in the submitted
// graph's Outputs() order, which is the compiled graph's (dag.Binarize
// keeps sinks in order), the simulated cycle count, and the compiled
// program the call ran, so callers needing compile metadata don't
// re-touch the engine's cache.
type Result struct {
	Outputs  []float64
	Cycles   int
	Compiled *compiler.Compiled
}

// Stats is a point-in-time snapshot of scheduler activity. The `prom`
// tags declare its /metrics families (see package metrics).
type Stats struct {
	// Submitted counts admitted requests; Rejected counts requests
	// turned away by admission control or ErrClosed.
	Submitted int64 `json:"submitted" prom:"dpu_sched_submitted_total"`
	Rejected  int64 `json:"rejected" prom:"dpu_sched_rejected_total"`
	// Completed counts requests finished successfully, Failed those
	// finished with a per-item, compile or context error.
	Completed int64 `json:"completed" prom:"dpu_sched_completed_total"`
	Failed    int64 `json:"failed" prom:"dpu_sched_failed_total"`
	// Batches counts chunks, executed or failed; BatchSize their sizes.
	Batches int64 `json:"batches" prom:"dpu_sched_batches_total"`
	// LingerFlushes and LingerHist are always zero: no request
	// waits for another. They stay on the wire, untagged, because bench/
	// still reads them: ROADMAP item 20 gives bench its seam, then item
	// 7b deletes them.
	LingerFlushes int64 `json:"linger_flushes"`
	// QueueDepth is the current number of admitted-but-unfinished
	// items; QueueLimit is the admission bound.
	QueueDepth int64           `json:"queue_depth" prom:"dpu_sched_queue_depth"`
	QueueLimit int64           `json:"queue_limit" prom:"dpu_sched_queue_limit"`
	BatchSize  metrics.Summary `json:"batch_size"`
	// Latency is per-item admission → chunk end (ns), which QueueWait
	// and Execute decompose (see StageQueueWait).
	Latency   metrics.Summary `json:"latency_ns"`
	QueueWait metrics.Summary `json:"queue_wait_ns"`
	Execute   metrics.Summary `json:"execute_ns"`
	// The *Hist fields are the bucket snapshots behind the summaries.
	// Quantiles of different processes cannot be averaged; snapshots
	// merge exactly (metrics.Snapshot.Merge), which is how the gateway
	// builds its fleet view. Every admitted item observes both stages, so
	// queue_wait.count == execute.count == completed + failed.
	BatchSizeHist metrics.Snapshot `json:"batch_size_hist" prom:"dpu_sched_batch_size"`
	LatencyHist   metrics.Snapshot `json:"latency_hist" prom:"dpu_sched_latency_ns"`
	QueueWaitHist metrics.Snapshot `json:"queue_wait_hist" prom:"dpu_sched_stage_latency_ns{stage=\"queue_wait\"}"`
	LingerHist    metrics.Snapshot `json:"linger_hist"`
	ExecuteHist   metrics.Snapshot `json:"execute_hist" prom:"dpu_sched_stage_latency_ns{stage=\"execute\"}"`
}

// Scheduler admits and runs submissions. It is safe for concurrent use
// by any number of goroutines.
type Scheduler struct {
	backend Backend
	opts    Options
	limit   int // admission bound, queueLimit (tests lower it after New)
	// now reads the time for the latency accounting: time.Now, which a
	// test replaces after New to make the stage windows exact.
	now func() time.Time

	mu     sync.Mutex
	queued int // admitted, not yet finished
	closed bool
	calls  sync.WaitGroup // calls with admitted items still running

	submitted, rejected atomic.Int64
	completed, failed   atomic.Int64
	batches             atomic.Int64
	batchSize           metrics.Histogram
	latency             metrics.Histogram
	queueWait           metrics.Histogram
	execute             metrics.Histogram
}

// New returns a scheduler dispatching onto backend.
func New(backend Backend, opts Options) *Scheduler {
	opts = opts.normalize()
	return &Scheduler{backend: backend, opts: opts, limit: queueLimit, now: time.Now}
}

// SubmitMany runs a whole request's input vectors under one admission
// and one compile, the backend's Compile of (g, cfg, copts), and returns
// per-item results and errors in input order.
func (s *Scheduler) SubmitMany(g *dag.Graph, cfg arch.Config, copts compiler.Options, batches [][]float64) ([]Result, []error) {
	return s.SubmitManyTraced(context.Background(), func() (*compiler.Compiled, error) {
		return s.backend.Compile(g, cfg, copts)
	}, batches, nil)
}

// SubmitManyTraced is SubmitMany under ctx with the call's compile step
// given as a function, recording against tr (nil records nothing).
// Vectors are admitted in order, so when the queue fills the admitted
// ones are a prefix and the rest fail with ErrQueueFull (ErrClosed after
// Close). compile runs once, after admission and only if it admitted a
// vector, so a call turned away builds and compiles nothing; a server
// passes a step that answers a resident program by key and builds its
// graph only on a miss. A chunk not started when ctx is done fails with
// ctx.Err(). A traced call gets one queue_wait span (admission → first
// chunk) and one execute span per chunk run; compile records its own.
func (s *Scheduler) SubmitManyTraced(ctx context.Context, compile func() (*compiler.Compiled, error), batches [][]float64, tr *trace.Trace) ([]Result, []error) {
	n := len(batches)
	results := make([]Result, n)
	errs := make([]error, n)
	enq := s.now()
	s.mu.Lock()
	k, reject := 0, ErrClosed
	if !s.closed {
		k, reject = min(n, s.limit-s.queued), ErrQueueFull
		s.queued += k
	}
	if k > 0 {
		s.calls.Add(1)
		defer s.calls.Done()
	}
	s.mu.Unlock()
	for i := k; i < n; i++ {
		errs[i] = reject
	}
	s.rejected.Add(int64(n - k))
	if k == 0 {
		return results, errs
	}
	s.submitted.Add(int64(k))

	c, err := compile()
	var outs [][]float64
	if err != nil {
		err = &CompileError{Err: err}
	} else {
		m := len(c.Graph.Outputs())
		flat := make([]float64, k*m)
		outs = make([][]float64, k)
		for i := range outs {
			outs[i] = flat[i*m : (i+1)*m : (i+1)*m]
		}
	}
	for lo := 0; lo < k; lo += s.opts.MaxBatch {
		hi := min(lo+s.opts.MaxBatch, k)
		if err == nil {
			err = ctx.Err()
		}
		start := s.now()
		if lo == 0 {
			tr.Span(StageQueueWait, enq, start.Sub(enq), 0)
		}
		if err != nil {
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
		} else {
			s.backend.ExecuteBatchInto(c, batches[lo:hi], outs[lo:hi], nil, errs[lo:hi])
		}
		end := s.now()
		if err == nil {
			tr.Span(StageExecute, start, end.Sub(start), 0, trace.Int("batch_size", int64(hi-lo)))
		}
		s.finish(errs[lo:hi], enq, start, end)
	}
	for i, out := range outs {
		if errs[i] == nil {
			results[i] = Result{Outputs: out, Cycles: c.Stats.Cycles, Compiled: c}
		}
	}
	return results, errs
}

// finish accounts one chunk whose items were admitted at enq and ran
// from start to end, and releases their queue slots.
func (s *Scheduler) finish(errs []error, enq, start, end time.Time) {
	s.batches.Add(1)
	s.batchSize.Observe(int64(len(errs)))
	for _, e := range errs {
		if e != nil {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
		s.latency.Observe(int64(end.Sub(enq)))
		s.queueWait.Observe(int64(start.Sub(enq)))
		s.execute.Observe(int64(end.Sub(start)))
	}
	s.mu.Lock()
	s.queued -= len(errs)
	s.mu.Unlock()
}

// Close stops admission (new submissions fail with ErrClosed) and blocks
// until every admitted call has finished — the graceful-drain contract.
// Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.calls.Wait()
}

// Stats returns a snapshot of the scheduler's counters and histograms.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	depth := s.queued
	s.mu.Unlock()
	st := Stats{
		Submitted:     s.submitted.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		Batches:       s.batches.Load(),
		QueueDepth:    int64(depth),
		QueueLimit:    int64(s.limit),
		BatchSizeHist: s.batchSize.Snapshot(),
		LatencyHist:   s.latency.Snapshot(),
		QueueWaitHist: s.queueWait.Snapshot(),
		ExecuteHist:   s.execute.Snapshot(),
	}
	metrics.Summarize(&st)
	return st
}
