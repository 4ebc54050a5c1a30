// Package engine is the compile-once/execute-many serving layer of the
// DPU-v2 reproduction. The paper's premise is that a DAG workload is
// compiled once for a fixed hardware configuration and then executed
// many times with different inputs; the engine amortizes exactly that:
//
//   - a content-addressed compile cache keyed by the graph's stable
//     Fingerprint plus the (normalized) hardware configuration and
//     compiler options, LRU-bounded, with single-flight admission so
//     concurrent requests for the same graph compile it exactly once,
//     and one resolve path (Program) that answers a resident program by
//     key, building the request's graph only on a miss (cache.go);
//
//   - one bounded free list of sim.FuncEvaluator instances (an
//     evaluator serves any program on any configuration), so
//     steady-state execution allocates nothing;
//
//   - batched execution with per-item error capture, evaluated
//     node-major — one walk of the graph per pass of up to 32 vectors
//     over the evaluator's [node][lane] scratch — and split over the
//     internal/par worker pool in whole passes, so a 32-vector batch is
//     one pass on every host;
//
//   - an optional persistent backing store of compiled-program
//     artifacts (internal/artifact): a compile miss consults the store
//     before compiling, a fresh compilation is persisted asynchronously,
//     and Preload warm-starts the cache from the store at boot so a
//     restarted server never compiles its resident population again;
//     every decoded artifact is statically verified first, once per
//     payload digest, and a store miss on a payload already verified
//     decodes only what serving reads (store.go);
//
//   - an atomically maintained Stats snapshot for observability.
package engine

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/par"
	"dpuv2/internal/sim"
)

// Options configure an Engine; the zero value is a production-ready
// default.
type Options struct {
	// CacheSize bounds the number of cached compiled programs (LRU
	// eviction beyond it). Default 128.
	CacheSize int
	// Store, when non-nil, backs the compile cache with persisted
	// artifacts: misses consult it before compiling, successful
	// compilations are persisted to it asynchronously (Flush waits for
	// them), and Preload fills the cache from it.
	Store *artifact.Store
}

func (o Options) normalize() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	return o
}

// Stats is a point-in-time snapshot of engine activity. The `prom` tags
// declare its /metrics families (see package metrics).
type Stats struct {
	// Hits counts resolve calls (Program or Compile) answered from the
	// cache (including waits on a compilation already in flight).
	Hits int64 `prom:"dpu_engine_cache_hits_total"`
	// Misses counts resolve calls that started a compilation.
	Misses int64 `prom:"dpu_engine_cache_misses_total"`
	// Evictions counts cached programs discarded by the LRU bound.
	Evictions int64 `prom:"dpu_engine_cache_evictions_total"`
	// Cached is the number of programs currently cached.
	Cached int64 `prom:"dpu_engine_cached_programs"`
	// InFlight is the number of executions currently running.
	InFlight int64 `prom:"dpu_engine_inflight_executions"`
	// Executions counts completed successful executions.
	Executions int64 `prom:"dpu_engine_executions_total"`
	// StoreHits counts compile misses answered by decoding a persisted
	// artifact instead of compiling.
	StoreHits int64 `prom:"dpu_engine_store_hits_total"`
	// StoreMisses counts compile misses the backing store could not
	// answer (no artifact for the key).
	StoreMisses int64 `prom:"dpu_engine_store_misses_total"`
	// StoreErrors counts failed store interactions: artifacts that would
	// not decode and persists that failed. The engine degrades to
	// compiling; the counter is how operators notice a damaged store.
	StoreErrors int64 `prom:"dpu_engine_store_errors_total"`
	// StoreStale counts artifacts Preload skipped because another
	// compiler revision built them: legal programs, but under a key no
	// request of this build forms. They are left in the store.
	StoreStale int64 `prom:"dpu_engine_store_stale_total"`
	// Preloaded counts artifacts loaded into the cache by Preload.
	Preloaded int64 `prom:"dpu_engine_preloaded_total"`
	// Verified counts decoded artifacts that passed static verification
	// at an engine trust boundary (store decode, preload). Re-admissions
	// of an already-verified payload digest are memoized and not
	// re-counted, so this tracks distinct verified contents.
	Verified int64 `prom:"dpu_engine_verified_total"`
	// VerifyRejects counts artifacts rejected by the static verifier —
	// treated exactly like checksum failures: the engine purges the file
	// and falls back to compiling. A nonzero value means something wrote
	// illegal programs into the store.
	VerifyRejects int64 `prom:"dpu_engine_verify_rejects_total"`
}

// Engine is a compile-once/execute-many server. It is safe for
// concurrent use by any number of goroutines.
type Engine struct {
	opts Options
	// workers bounds the goroutines one ExecuteBatchInto call splits its
	// passes over: GOMAXPROCS. In-package tests set it right after New.
	workers int

	mu        sync.Mutex // guards the cache and its counters
	entries   map[artifact.Key]*entry
	lru       list.List // of *entry, most-recent first
	hits      int64
	misses    int64
	evictions int64

	// free holds idle evaluators (see getEvaluator). Its capacity,
	// 2×GOMAXPROCS, covers one batch's workers plus as many again for
	// concurrent batches; an evaluator returned past it goes to the GC.
	free chan *sim.FuncEvaluator

	inFlight   atomic.Int64
	executions atomic.Int64

	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storeErrors atomic.Int64
	storeStale  atomic.Int64
	preloaded   atomic.Int64

	// Static-verification gate state: every decoded artifact passes
	// through verifyDecoded before the engine trusts it; the memo of
	// payload digests makes that once per content, not once per decode.
	verified        atomic.Int64
	verifyRejects   atomic.Int64
	verifyMu        sync.Mutex
	verifiedDigests map[artifact.Digest]struct{}
	// persists tracks in-flight async artifact writes; Flush waits on it.
	persists sync.WaitGroup
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	return &Engine{
		opts:            opts.normalize(),
		workers:         runtime.GOMAXPROCS(0),
		entries:         make(map[artifact.Key]*entry),
		free:            make(chan *sim.FuncEvaluator, 2*runtime.GOMAXPROCS(0)),
		verifiedDigests: make(map[artifact.Digest]struct{}),
	}
}

// Resolve maps a request to the configuration and compiler options it
// is served on: the caller's own, with the config in normalized
// (cache-key) form. It does not read g, which may be nil. Only bench's
// replay calls it (artifact.KeyFor normalizes the config of every cache
// key), and ROADMAP item 15b deletes it.
func (e *Engine) Resolve(g *dag.Graph, cfg arch.Config, opts compiler.Options) (arch.Config, compiler.Options) {
	return cfg.Normalize(), opts
}

// getEvaluator leases an idle evaluator or builds a new one. The free
// list is a plain buffered channel rather than a sync.Pool on purpose:
// a sync.Pool drops idle items across GC cycles, and a busy server
// collects hundreds of times a second, so every lease would regrow its
// value scratch.
func (e *Engine) getEvaluator() *sim.FuncEvaluator {
	select {
	case f := <-e.free:
		return f
	default:
		return new(sim.FuncEvaluator)
	}
}

// putEvaluator returns an evaluator to the free list, dropping it to
// the GC when the list is full.
func (e *Engine) putEvaluator(f *sim.FuncEvaluator) {
	select {
	case e.free <- f:
	default:
	}
}

// ExecuteBatchInto is the engine's one execute entry: it runs one
// compiled program over a batch of input vectors, writing the sink
// values of item i (in c.Graph.Outputs() order) into outs[i] and its
// error into errs[i]; cycles, when non-nil, is filled with
// c.Stats.Cycles (every item of a batch runs the same static schedule —
// callers that hold c pass nil). The batch is split into contiguous
// chunks of whole evaluator passes (sim.PassWidth vectors each, 32 for
// any graph up to 8,192 nodes), at most one chunk per worker, and each
// worker leases a single evaluator for its chunk, so free-list traffic
// is per batch, not per item. A batch of up to one pass width — every
// scheduler chunk — therefore runs as a single pass inline on the
// caller's goroutine, whatever the core count, and allocates nothing in
// steady state.
func (e *Engine) ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error) {
	n := len(batches)
	if n == 0 {
		return
	}
	width := sim.PassWidth(c.Graph)
	passes := (n + width - 1) / width
	workers := min(e.workers, passes)
	for i := range cycles {
		cycles[i] = c.Stats.Cycles
	}
	e.inFlight.Add(int64(n))
	if workers <= 1 {
		// Closure-free serial path: the steady state allocates nothing.
		e.runChunk(c, batches, outs, errs, 0, n)
	} else {
		par.ForEach(workers, workers, func(w int) {
			lo := min(n, width*(passes*w/workers))
			hi := min(n, width*(passes*(w+1)/workers))
			e.runChunk(c, batches, outs, errs, lo, hi)
		})
	}
	e.inFlight.Add(int64(-n))
}

// runChunk executes items [lo,hi) of a batch on one leased evaluator.
func (e *Engine) runChunk(c *compiler.Compiled, batches, outs [][]float64, errs []error, lo, hi int) {
	f := e.getEvaluator()
	f.ExecuteBatchInto(c, batches[lo:hi], outs[lo:hi], errs[lo:hi])
	e.putEvaluator(f)
	ok := 0
	for _, err := range errs[lo:hi] {
		if err == nil {
			ok++
		}
	}
	e.executions.Add(int64(ok))
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Hits:      e.hits,
		Misses:    e.misses,
		Evictions: e.evictions,
		Cached:    int64(len(e.entries)),
	}
	e.mu.Unlock()
	s.InFlight = e.inFlight.Load()
	s.Executions = e.executions.Load()
	s.StoreHits = e.storeHits.Load()
	s.StoreMisses = e.storeMisses.Load()
	s.StoreErrors = e.storeErrors.Load()
	s.StoreStale = e.storeStale.Load()
	s.Preloaded = e.preloaded.Load()
	s.Verified = e.verified.Load()
	s.VerifyRejects = e.verifyRejects.Load()
	return s
}
