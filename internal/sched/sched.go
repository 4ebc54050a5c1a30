// Package sched is the dynamic micro-batching layer between concurrent
// callers and the serving engine. Callers submitting the same graph
// (same content address: fingerprint + normalized config + compiler
// options) while a batch of it is executing are coalesced into one
// batched engine invocation, which compiles once and executes every item
// on a small number of leased evaluators — the engine's fastest path —
// instead of N independent compile-cache and free-list round trips.
//
// There is one dispatch rule and no clock in it (batch-while-busy):
//
//   - a batch is dispatched the moment it reaches MaxBatch items;
//   - a partial batch is dispatched at once when no batch for its key is
//     executing — a lone request never waits for company;
//   - otherwise it stays open behind the executing batches, absorbing
//     arrivals, and is dispatched when the last of them delivers — the
//     execution itself is the coalescing window;
//   - admission control bounds memory: a Submit that would exceed
//     QueueDepth admitted-but-unfinished items is rejected immediately
//     with ErrQueueFull — callers shed load instead of the server
//     growing an unbounded queue;
//   - Close drains gracefully: open batches are dispatched at once,
//     in-flight work completes, new submissions fail with ErrClosed.
package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/metrics"
	"dpuv2/internal/trace"
)

// ErrQueueFull rejects a submission that would exceed QueueDepth
// admitted-but-unfinished requests. Servers map it to 429.
var ErrQueueFull = errors.New("sched: queue full")

// ErrClosed rejects submissions after Close. Servers map it to 503.
var ErrClosed = errors.New("sched: scheduler closed")

// CompileError marks a batch failure caused by compilation (as opposed
// to a per-item execution error), so servers can answer 422 instead of
// itemizing. It wraps the compiler's error.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// Backend is what the scheduler needs from the serving engine.
// *engine.Engine satisfies it; tests substitute fakes to probe policy
// without real compilation. The scheduler always passes nil for cycles:
// every item of a batch ran the same static schedule, so Result.Cycles
// is c.Stats.Cycles.
type Backend interface {
	Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error)
	ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error)
}

// TracedBackend is the optional tracing extension of Backend: a backend
// that records its own spans (compile-cache resolution, store decode,
// batch execution) against the batch's trace. *engine.Engine implements
// it; plain Backends — including every test fake — keep working, they
// just contribute no engine-side spans.
type TracedBackend interface {
	Backend
	CompileTraced(g *dag.Graph, cfg arch.Config, opts compiler.Options, tr *trace.Trace) (*compiler.Compiled, error)
	ExecuteBatchIntoTraced(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error, tr *trace.Trace)
}

// Stage names of the scheduler's latency decomposition, as they appear
// in trace spans and the per-stage histogram labels: Linger is
// enqueue→batch detach — the time an item spent parked behind an
// executing batch of its key, zero when its key was idle — QueueWait is
// detach→execution start (dispatch overhead and the batch compile),
// Execute is the backend's batch window. The three are contiguous and
// non-overlapping, so per item linger+queue_wait+execute ≤ the
// end-to-end latency.
const (
	StageLinger    = "linger"
	StageQueueWait = "queue_wait"
	StageExecute   = "execute"
)

// Options configure a Scheduler; the zero value is a production-ready
// default.
type Options struct {
	// MaxBatch dispatches a batch when it reaches this many items.
	// Default 32.
	MaxBatch int
	// QueueDepth bounds admitted-but-unfinished items; submissions
	// beyond it are rejected with ErrQueueFull. Default 4096.
	QueueDepth int
	// Clock is the time source of the latency accounting (the dispatch
	// rule reads no clock); nil means SystemClock. Tests inject a
	// FakeClock to make the stage windows exact.
	Clock Clock
}

func (o Options) normalize() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	if o.Clock == nil {
		o.Clock = SystemClock
	}
	return o
}

// Result is one completed submission: the sink values in the order of
// the submitted graph's Outputs() (the scheduler translates from the
// compiled, binarized graph's numbering), the simulated cycle count, and
// the cached compiled program the batch ran (shared across the batch),
// so callers needing compile metadata don't re-touch the engine's cache.
type Result struct {
	Outputs  []float64
	Cycles   int
	Compiled *compiler.Compiled
}

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	// Submitted counts admitted requests; Rejected counts requests
	// turned away by admission control or ErrClosed.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	// Completed counts requests finished successfully, Failed those
	// finished with a per-item or compile error.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Batches counts dispatched batches. SizeFlushes are those that
	// reached MaxBatch, LingerFlushes those that parked behind an
	// executing batch of their key and were dispatched when it
	// delivered, CloseFlushes those Close dispatched; the remainder
	// (Batches minus the three) went out at once on an idle key.
	Batches       int64 `json:"batches"`
	SizeFlushes   int64 `json:"size_flushes"`
	LingerFlushes int64 `json:"linger_flushes"`
	CloseFlushes  int64 `json:"close_flushes"`
	// QueueDepth is the current number of admitted-but-unfinished
	// items; QueueLimit is the admission bound.
	QueueDepth int `json:"queue_depth"`
	QueueLimit int `json:"queue_limit"`
	// BatchSize summarizes dispatched batch sizes (items).
	BatchSize metrics.Summary `json:"batch_size"`
	// Latency summarizes per-request submit→completion time (ns).
	Latency metrics.Summary `json:"latency_ns"`
	// QueueWait/Linger/Execute decompose Latency per item into the
	// three contiguous stages (see StageLinger et al.): where a p99
	// regression actually spends its time — parked behind a busy key,
	// waiting to start (including the batch compile), or executing.
	QueueWait metrics.Summary `json:"queue_wait_ns"`
	Linger    metrics.Summary `json:"linger_wait_ns"`
	Execute   metrics.Summary `json:"execute_ns"`
	// BatchSizeHist/LatencyHist are the full bucket snapshots behind the
	// two summaries. Quantiles of different processes cannot be averaged;
	// bucket snapshots merge exactly (metrics.Snapshot.Merge), which is
	// how the gateway aggregates per-backend stats into a fleet view.
	BatchSizeHist metrics.Snapshot `json:"batch_size_hist"`
	LatencyHist   metrics.Snapshot `json:"latency_hist"`
	// Per-stage bucket snapshots behind the stage summaries. Every
	// delivered item observes all three, so the stage counts conserve:
	// queue_wait.count == linger.count == execute.count.
	QueueWaitHist metrics.Snapshot `json:"queue_wait_hist"`
	LingerHist    metrics.Snapshot `json:"linger_hist"`
	ExecuteHist   metrics.Snapshot `json:"execute_hist"`
}

// request is one submission's slot in a batch. tr, when non-nil, is the
// submitting HTTP request's trace; the batch leader records the item's
// stage spans against it before waking the waiter.
type request struct {
	inputs []float64
	enq    time.Time
	tr     *trace.Trace
}

// batch accumulates requests for one key until dispatch; after run it
// carries every item's outcome, and done (closed once) broadcasts
// completion to all waiters at the cost of a single wakeup operation.
//
// The key is the coalescing address (artifact.Key, the engine's
// compile-cache address): requests batch together iff their compiled
// program would be the same cache entry. The serving layer resolves
// autotuned configurations *before* submitting (engine.Resolve), so once
// a workload's tuning decision lands, its traffic coalesces under the
// tuned config's key with no scheduler involvement.
type batch struct {
	key  artifact.Key
	g    *dag.Graph // representative graph (content-equal for all items)
	reqs []request

	done     chan struct{}
	c        *compiler.Compiled
	outs     [][]float64
	errs     []error
	batchErr error // compile failure (*CompileError): fails every item

	// Stage boundaries of the latency decomposition, stamped by the
	// leader: detached when the batch stopped accepting items,
	// execStart/execEnd bracketing the backend's batch execution
	// (equal on a compile failure, so stage counts still conserve).
	detached  time.Time
	execStart time.Time
	execEnd   time.Time
	// btr is the trace the engine's batch-level spans are recorded
	// against (the first traced item's), chosen by run; deliver skips
	// the per-item execute span for it when the backend already
	// recorded a richer one.
	btr *trace.Trace
}

// Scheduler coalesces submissions into batched backend executions. It is
// safe for concurrent use by any number of goroutines.
type Scheduler struct {
	backend Backend
	// traced is backend's tracing extension, nil when the backend does
	// not implement TracedBackend (test fakes). Asserted once at New,
	// not per batch.
	traced TracedBackend
	opts   Options
	clock  Clock

	mu sync.Mutex
	// open holds the batch still accepting items per key, busy the
	// number of detached-but-undelivered batches per key. Whenever s.mu
	// is released, a key with an open batch is busy: a partial batch on
	// an idle key is detached by the call that formed it.
	open   map[artifact.Key]*batch
	busy   map[artifact.Key]int
	queued int // admitted, not yet completed
	closed bool
	drain  sync.WaitGroup // dispatched batches not yet delivered

	submitted, rejected  atomic.Int64
	completed, failed    atomic.Int64
	batches, sizeFlushes atomic.Int64
	lingerFlushes        atomic.Int64
	closeFlushes         atomic.Int64
	batchSize            metrics.Histogram
	latency              metrics.Histogram
	queueWait            metrics.Histogram
	lingerWait           metrics.Histogram
	execute              metrics.Histogram
}

// New returns a scheduler dispatching onto backend.
func New(backend Backend, opts Options) *Scheduler {
	opts = opts.normalize()
	traced, _ := backend.(TracedBackend)
	return &Scheduler{
		backend: backend,
		traced:  traced,
		opts:    opts,
		clock:   opts.Clock,
		open:    make(map[artifact.Key]*batch),
		busy:    make(map[artifact.Key]int),
	}
}

// Submit queues one execution of g (content-addressed, so structurally
// identical graphs coalesce) and blocks until its batch completes: it is
// SubmitMany of one vector. The returned outputs are in g.Outputs()
// order and owned by the caller.
func (s *Scheduler) Submit(g *dag.Graph, cfg arch.Config, copts compiler.Options, inputs []float64) (Result, error) {
	results, errs := s.SubmitManyTraced(g, cfg, copts, [][]float64{inputs}, nil)
	return results[0], errs[0]
}

// SubmitMany queues a whole request's input vectors in one admission
// pass (so they coalesce with each other as well as with concurrent
// callers) and waits for all of them. Results and errors are per item,
// in input order; items past an admission failure are still attempted,
// each slot reporting its own outcome.
func (s *Scheduler) SubmitMany(g *dag.Graph, cfg arch.Config, copts compiler.Options, batches [][]float64) ([]Result, []error) {
	return s.SubmitManyTraced(g, cfg, copts, batches, nil)
}

// SubmitManyTraced is SubmitMany with the request's trace attached to
// every admitted item (one HTTP request = one trace, however many
// vectors it carries): the batch leader records the item's
// linger/queue_wait/execute spans against tr before the waiter wakes. A
// nil tr is exactly SubmitMany.
//
// The call that detaches a batch — by filling it, or by finding its key
// idle — becomes its leader and executes it on its own goroutine (no
// runner-goroutine handoff); everyone else parks on the batch's
// broadcast channel.
func (s *Scheduler) SubmitManyTraced(g *dag.Graph, cfg arch.Config, copts compiler.Options, batches [][]float64, tr *trace.Trace) ([]Result, []error) {
	k := artifact.KeyFor(g.Fingerprint(), cfg, copts)
	type slot struct {
		b   *batch
		idx int
	}
	slots := make([]slot, len(batches))
	errs := make([]error, len(batches))
	var lead []*batch
	s.mu.Lock()
	now := s.clock.Now()
	b := s.open[k]
	for i, in := range batches {
		if s.closed {
			s.rejected.Add(1)
			errs[i] = ErrClosed
			continue
		}
		if s.queued >= s.opts.QueueDepth {
			s.rejected.Add(1)
			errs[i] = ErrQueueFull
			continue
		}
		s.queued++
		s.submitted.Add(1)
		if b == nil {
			b = &batch{key: k, g: g, done: make(chan struct{}),
				reqs: make([]request, 0, min(s.opts.MaxBatch, len(batches)-i))}
			s.open[k] = b
		}
		slots[i] = slot{b, len(b.reqs)}
		b.reqs = append(b.reqs, request{inputs: in, enq: now, tr: tr})
		if len(b.reqs) >= s.opts.MaxBatch {
			s.detachLocked(b, now)
			s.sizeFlushes.Add(1)
			lead = append(lead, b)
			b = nil
		}
	}
	// The dispatch decision, once per call: a partial batch goes out now
	// if nothing for its key is executing; otherwise it stays open and
	// the delivery of the last executing batch dispatches it.
	if b != nil && s.busy[k] == 0 {
		s.detachLocked(b, now)
		lead = append(lead, b)
	}
	s.mu.Unlock()
	// Run the batches this call dispatched, then wait for the rest.
	for _, b := range lead {
		s.run(b)
	}
	results := make([]Result, len(batches))
	for i, sl := range slots {
		if sl.b == nil {
			continue
		}
		<-sl.b.done
		switch {
		case sl.b.batchErr != nil:
			errs[i] = sl.b.batchErr
		case sl.b.errs[sl.idx] != nil:
			errs[i] = sl.b.errs[sl.idx]
		default:
			results[i] = Result{Outputs: sl.b.outs[sl.idx], Cycles: sl.b.c.Stats.Cycles, Compiled: sl.b.c}
		}
	}
	return results, errs
}

// detachLocked closes b to new items at instant now and accounts the
// dispatch; the caller must arrange for s.run(b) after releasing s.mu.
// Caller holds s.mu.
func (s *Scheduler) detachLocked(b *batch, now time.Time) {
	delete(s.open, b.key)
	s.busy[b.key]++
	b.detached = now
	s.batches.Add(1)
	s.drain.Add(1)
}

// run executes one detached batch — on the submitter's goroutine that
// detached it, on its own goroutine when a delivery dispatched it, or on
// Close's: compile once (almost always a cache hit), fan the items over
// the backend's leased-machine batch path, then publish every item's
// outcome and wake all waiters with one channel close.
func (s *Scheduler) run(b *batch) {
	defer s.drain.Done()
	n := len(b.reqs)
	// The engine's batch-level spans (resolve, store_decode, compile,
	// execute) go to one trace: the first traced item's. The other
	// traced items still get their per-item stage spans in deliver.
	if s.traced != nil {
		for i := range b.reqs {
			if b.reqs[i].tr != nil {
				b.btr = b.reqs[i].tr
				break
			}
		}
	}
	var c *compiler.Compiled
	var cerr error
	if b.btr != nil {
		c, cerr = s.traced.CompileTraced(b.g, b.key.Config, b.key.Options, b.btr)
	} else {
		c, cerr = s.backend.Compile(b.g, b.key.Config, b.key.Options)
	}
	if cerr != nil {
		// Stage accounting must conserve counts even on a failed batch:
		// an empty execute window, starting now.
		b.execStart = s.clock.Now()
		b.execEnd = b.execStart
		b.batchErr = &CompileError{Err: cerr}
		s.deliver(b)
		return
	}
	b.c = c
	sinks := c.Graph.Outputs()
	ins := make([][]float64, n)
	b.outs = make([][]float64, n)
	flat := make([]float64, n*len(sinks))
	b.errs = make([]error, n)
	for i := range b.reqs {
		ins[i] = b.reqs[i].inputs
		b.outs[i] = flat[i*len(sinks) : (i+1)*len(sinks) : (i+1)*len(sinks)]
	}
	b.execStart = s.clock.Now()
	if b.btr != nil {
		s.traced.ExecuteBatchIntoTraced(c, ins, b.outs, nil, b.errs, b.btr)
	} else {
		s.backend.ExecuteBatchInto(c, ins, b.outs, nil, b.errs)
	}
	b.execEnd = s.clock.Now()
	// The engine writes outputs in the compiled (binarized) graph's sink
	// order; requests are answered in the submitted graph's order. The
	// permutation is identity for already-binary graphs (Remap is the
	// identity), checked without allocating.
	orig := b.g.Outputs()
	identity := len(orig) == len(sinks)
	if identity {
		for j, o := range orig {
			if c.Remap[o] != sinks[j] {
				identity = false
				break
			}
		}
	}
	if !identity {
		perm := make([]int, len(orig))
		pos := make(map[dag.NodeID]int, len(sinks))
		for i, sk := range sinks {
			pos[sk] = i
		}
		for j, o := range orig {
			perm[j] = pos[c.Remap[o]]
		}
		for i := range b.outs {
			if b.errs[i] != nil {
				continue
			}
			po := make([]float64, len(orig))
			for j, p := range perm {
				po[j] = b.outs[i][p]
			}
			b.outs[i] = po
		}
	}
	s.deliver(b)
}

// deliver accounts the finished batch, releases its queue slots, wakes
// every waiter and — when b was the last executing batch of its key —
// dispatches the batch that parked behind it. Publication is safe
// without per-item signalling: all writes to b happen before
// close(b.done), and waiters only read b after receiving from it.
func (s *Scheduler) deliver(b *batch) {
	now := s.clock.Now()
	for i := range b.reqs {
		r := &b.reqs[i]
		if b.batchErr != nil || b.errs[i] != nil {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
		s.latency.Observe(int64(now.Sub(r.enq)))
		// Per-item stage decomposition. Every delivered item observes
		// all three histograms, so stage counts conserve (the CI smoke
		// asserts queue_wait.count == execute.count).
		linger := b.detached.Sub(r.enq)
		qwait := b.execStart.Sub(b.detached)
		exec := b.execEnd.Sub(b.execStart)
		s.lingerWait.Observe(int64(linger))
		s.queueWait.Observe(int64(qwait))
		s.execute.Observe(int64(exec))
		if r.tr != nil {
			r.tr.Span(StageLinger, r.enq, linger, 0)
			r.tr.Span(StageQueueWait, b.detached, qwait, 0)
			// The engine already recorded a richer execute span (backend,
			// batch size) on b.btr; only the other traced items need the
			// per-item window here.
			if r.tr != b.btr {
				r.tr.Span(StageExecute, b.execStart, exec, 0,
					trace.Int("batch_size", int64(len(b.reqs))))
			}
		}
	}
	s.batchSize.Observe(int64(len(b.reqs)))
	var next *batch
	s.mu.Lock()
	s.queued -= len(b.reqs)
	if n := s.busy[b.key] - 1; n > 0 {
		s.busy[b.key] = n
	} else {
		delete(s.busy, b.key)
		if next = s.open[b.key]; next != nil {
			s.detachLocked(next, now)
			s.lingerFlushes.Add(1)
		}
	}
	s.mu.Unlock()
	close(b.done)
	if next != nil {
		// Not inline: this goroutine owes its own caller a reply, and
		// under sustained load the chain of follow-on batches need never
		// end. Close waits for it through s.drain.
		go s.run(next)
	}
}

// Close stops admission (new submissions fail with ErrClosed),
// dispatches every open batch immediately, and blocks until all
// dispatched work has been delivered — the graceful-drain contract.
// Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	var flush []*batch
	if !s.closed {
		s.closed = true
		now := s.clock.Now()
		for _, b := range s.open {
			s.detachLocked(b, now)
			s.closeFlushes.Add(1)
			flush = append(flush, b)
		}
	}
	s.mu.Unlock()
	for _, b := range flush {
		s.run(b)
	}
	s.drain.Wait()
}

// Stats returns a snapshot of the scheduler's counters and histograms.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	depth := s.queued
	s.mu.Unlock()
	return Stats{
		Submitted:     s.submitted.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		Batches:       s.batches.Load(),
		SizeFlushes:   s.sizeFlushes.Load(),
		LingerFlushes: s.lingerFlushes.Load(),
		CloseFlushes:  s.closeFlushes.Load(),
		QueueDepth:    depth,
		QueueLimit:    s.opts.QueueDepth,
		BatchSize:     s.batchSize.Summary(),
		Latency:       s.latency.Summary(),
		QueueWait:     s.queueWait.Summary(),
		Linger:        s.lingerWait.Summary(),
		Execute:       s.execute.Summary(),
		BatchSizeHist: s.batchSize.Snapshot(),
		LatencyHist:   s.latency.Snapshot(),
		QueueWaitHist: s.queueWait.Snapshot(),
		LingerHist:    s.lingerWait.Snapshot(),
		ExecuteHist:   s.execute.Snapshot(),
	}
}
