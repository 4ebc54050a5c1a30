// Package engine is the compile-once/execute-many serving layer of the
// DPU-v2 reproduction. The paper's premise is that a DAG workload is
// compiled once for a fixed hardware configuration and then executed
// many times with different inputs; the engine amortizes exactly that:
//
//   - a content-addressed compile cache keyed by the graph's stable
//     Fingerprint plus the (normalized) hardware configuration and
//     compiler options, LRU-bounded, with single-flight admission so
//     concurrent requests for the same graph compile it exactly once,
//     and a lookup by key alone (Lookup) that answers a resident
//     program without the request's graph being built;
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
//
//   - an atomically maintained Stats snapshot for observability.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/par"
	"dpuv2/internal/sim"
	"dpuv2/internal/trace"
	"dpuv2/internal/verify"
)

// Options configure an Engine; the zero value is a production-ready
// default.
type Options struct {
	// CacheSize bounds the number of cached compiled programs (LRU
	// eviction beyond it). Default 128.
	CacheSize int
	// Workers sizes the ExecuteBatchInto worker pool. Default GOMAXPROCS.
	Workers int
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
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats is a point-in-time snapshot of engine activity. The `prom` tags
// declare its /metrics families (see package metrics).
type Stats struct {
	// Hits counts Compile calls answered from the cache (including
	// waits on a compilation already in flight).
	Hits int64 `prom:"dpu_engine_cache_hits_total"`
	// Misses counts Compile calls that started a compilation.
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
	// Preloaded counts artifacts loaded into the cache by Preload.
	Preloaded int64 `prom:"dpu_engine_preloaded_total"`
	// Verified counts decoded artifacts that passed static verification
	// at an engine trust boundary (store decode, preload). Re-admissions of an already-verified content address are
	// memoized and not re-counted, so this tracks distinct verified keys.
	Verified int64 `prom:"dpu_engine_verified_total"`
	// VerifyRejects counts artifacts rejected by the static verifier —
	// treated exactly like checksum failures: the engine purges the file
	// and falls back to compiling. A nonzero value means something wrote
	// illegal programs into the store.
	VerifyRejects int64 `prom:"dpu_engine_verify_rejects_total"`
}

// entry is one cache slot. done is closed when the single-flight
// compilation finishes; waiters then read c/err.
type entry struct {
	key  artifact.Key // content address: fingerprint, normalized config, compiler options
	done chan struct{}
	c    *compiler.Compiled
	err  error
	// sinks memoizes the sinks of the client graphs c serves, set once
	// a graph with key's fingerprint has been checked against c: at its
	// compile or store decode, or at the first Compile hit on a
	// preloaded entry. Nil until then; Lookup answers only when set.
	sinks atomic.Pointer[[]dag.NodeID]

	prev, next *entry // LRU list, most-recent first
}

func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Engine is a compile-once/execute-many server. It is safe for
// concurrent use by any number of goroutines.
type Engine struct {
	opts Options

	mu         sync.Mutex // guards the cache and its counters
	entries    map[artifact.Key]*entry
	head, tail *entry
	hits       int64
	misses     int64
	evictions  int64

	// free is the list of idle evaluators (see getEvaluator), bounded at
	// maxFree = 2×GOMAXPROCS.
	freeMu  sync.Mutex
	free    []*sim.FuncEvaluator
	maxFree int

	inFlight   atomic.Int64
	executions atomic.Int64

	storeHits   atomic.Int64
	storeMisses atomic.Int64
	storeErrors atomic.Int64
	preloaded   atomic.Int64

	// Static-verification gate state: every decoded artifact passes
	// through verifyDecoded before the engine trusts it; the memo makes
	// that once per content address, not once per decode.
	verified      atomic.Int64
	verifyRejects atomic.Int64
	verifyMu      sync.Mutex
	verifiedKeys  map[artifact.Key]struct{}
	// persists tracks in-flight async artifact writes; Flush waits on it.
	persists sync.WaitGroup
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	return &Engine{
		opts:         opts.normalize(),
		entries:      make(map[artifact.Key]*entry),
		maxFree:      2 * runtime.GOMAXPROCS(0),
		verifiedKeys: make(map[artifact.Key]struct{}),
	}
}

// Resolve maps a request to the configuration and compiler options it
// is served on: the caller's own, with the config in normalized
// (cache-key) form. It stays as the serving path's one config-resolution
// step, so the handler and anything replaying the handler name the same
// cache key. It does not read g, which may be nil: the handler resolves
// before it knows whether it needs to build a graph.
func (e *Engine) Resolve(g *dag.Graph, cfg arch.Config, opts compiler.Options) (arch.Config, compiler.Options) {
	return cfg.Normalize(), opts
}

// Compile returns the compiled program for (g, cfg, opts), compiling at
// most once per content address: concurrent callers for the same key
// share one compilation, and later callers hit the cache. Compilation
// failures surface to every waiting caller and are not cached, so a
// transient failure does not poison the key.
func (e *Engine) Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error) {
	c, err, _ := e.compile(g, cfg, opts, nil, -1)
	return c, err
}

// compile is Compile with an optional trace threaded through (see
// CompileTraced in trace.go): resolveMiss records store_decode/compile
// spans under parent, and hit reports whether the cache answered.
func (e *Engine) compile(g *dag.Graph, cfg arch.Config, opts compiler.Options, tr *trace.Trace, parent int) (_ *compiler.Compiled, _ error, hit bool) {
	k := artifact.KeyFor(g.Fingerprint(), cfg, opts)

	e.mu.Lock()
	if ent, ok := e.entries[k]; ok {
		e.hits++
		e.moveToFront(ent)
		e.mu.Unlock()
		<-ent.done
		if ent.err != nil || ent.sinks.Load() != nil {
			return ent.c, ent.err, true
		}
		// A program the engine compiled always serves g, but a preloaded
		// artifact is only validated against its own content. Evict one
		// that does not (cache and store) so the next request recompiles
		// cleanly.
		if !servesGraph(g, ent.c) {
			// Only the waiter that actually evicts the entry purges the
			// store file, and it does so before any retry can miss: a
			// late purge would delete the artifact the retry's compile
			// has re-persisted (nothing would re-persist it until the
			// good entry leaves the cache).
			if e.dropPoisoned(k, ent) {
				e.storeErrors.Add(1)
			}
			return nil, fmt.Errorf("engine: cached program for %s does not map the graph's %d nodes and sinks onto its own (poisoned artifact evicted; retry recompiles)",
				k.Fingerprint.Short(), g.NumNodes()), true
		}
		sinks := g.Outputs()
		ent.sinks.Store(&sinks)
		return ent.c, nil, true
	}
	e.misses++
	ent := &entry{key: k, done: make(chan struct{})}
	e.entries[k] = ent
	e.pushFront(ent)
	e.evictLocked()
	e.mu.Unlock()

	c, err := e.resolveMiss(g, k, tr, parent)
	var sinks []dag.NodeID
	if err == nil {
		sinks = g.Outputs() // resolveMiss returns only a program that serves g
	}
	e.mu.Lock()
	ent.c, ent.err = c, err
	if err == nil {
		ent.sinks.Store(&sinks) // with c, under e.mu, where Lookup reads both
	}
	if err != nil && e.entries[k] == ent {
		delete(e.entries, k)
		e.unlink(ent)
	}
	close(ent.done) // before evictLocked, which skips unfinished entries
	// Re-apply the bound: inserts that happened while every resident
	// entry was still compiling could not evict anything.
	e.evictLocked()
	e.mu.Unlock()
	return c, err, false
}

// Lookup answers a request by its content address alone: for a
// resident, completed entry whose program has been checked against a
// graph with fingerprint fp, it returns the program and that graph's
// sinks, counting a hit and touching the LRU exactly as Compile's hit
// path does. An absent, in-flight or unchecked entry is no answer and
// counts nothing: the caller builds the graph and calls Compile, which
// counts the miss or hit and checks a preloaded program with
// servesGraph before it is served. This is sound because servesGraph
// reads only the graph's node count and sinks, and both are functions
// of the structure fp names. A hit records a "resolve" span with
// cache_hit=true against tr (nil records nothing).
func (e *Engine) Lookup(fp dag.Fingerprint, cfg arch.Config, opts compiler.Options, tr *trace.Trace) (*compiler.Compiled, []dag.NodeID, bool) {
	t0 := tr.Now()
	k := artifact.KeyFor(fp, cfg, opts)
	e.mu.Lock()
	ent, ok := e.entries[k]
	var sinks *[]dag.NodeID
	if ok {
		sinks = ent.sinks.Load()
	}
	if sinks == nil {
		e.mu.Unlock()
		return nil, nil, false
	}
	e.hits++
	e.moveToFront(ent)
	c := ent.c
	e.mu.Unlock()
	if tr != nil {
		tr.Span("resolve", t0, tr.Now().Sub(t0), 0,
			trace.Str("fingerprint", fp.Short()), trace.Bool("cache_hit", true))
	}
	return c, *sinks, true
}

// servesGraph reports whether c answers for g: its remap covers g's
// nodes and carries g's sinks onto c.Graph's sinks, in order, so output
// j of c.Graph is g's sink j. Every program the compiler builds does
// (dag.Binarize keeps sinks in order); a decoded artifact is checked
// only against its own content, so the engine checks this before it
// serves one.
func servesGraph(g *dag.Graph, c *compiler.Compiled) bool {
	orig, sinks := g.Outputs(), c.Graph.Outputs()
	if len(c.Remap) != g.NumNodes() || len(orig) != len(sinks) {
		return false
	}
	for j, o := range orig {
		if c.Remap[o] != sinks[j] {
			return false
		}
	}
	return true
}

// maxVerifiedKeys bounds the verification memo; past it the memo is
// cleared (re-verifying is correct, just slower) rather than grown.
const maxVerifiedKeys = 4096

// verifyDecoded statically verifies a decoded artifact before the
// engine trusts it, memoized per content address so the serving path
// pays the verifier once per store key, not once per decode. A false
// return (counted in Stats.VerifyRejects) means the program carries
// error-severity findings and must be treated like a checksum failure.
func (e *Engine) verifyDecoded(k artifact.Key, c *compiler.Compiled) bool {
	e.verifyMu.Lock()
	_, done := e.verifiedKeys[k]
	e.verifyMu.Unlock()
	if done {
		return true
	}
	if fs := verify.Compiled(c); verify.HasErrors(fs) {
		e.verifyRejects.Add(1)
		return false
	}
	e.verified.Add(1)
	e.verifyMu.Lock()
	if len(e.verifiedKeys) >= maxVerifiedKeys {
		clear(e.verifiedKeys)
	}
	e.verifiedKeys[k] = struct{}{}
	e.verifyMu.Unlock()
	return true
}

// resolveMiss produces the compiled program for a cache miss: a backing
// store is consulted first (a decoded artifact is bit-identical to a
// fresh compilation and much cheaper); otherwise the graph is compiled
// and, on success, persisted to the store off the request path. The
// store consult and the compilation record spans under parent when a
// trace rides the miss (tr and every span handle are nil-safe).
func (e *Engine) resolveMiss(g *dag.Graph, k artifact.Key, tr *trace.Trace, parent int) (*compiler.Compiled, error) {
	if st := e.opts.Store; st != nil {
		sd := tr.Begin("store_decode", parent)
		switch a, err := st.Get(k); {
		case err == nil && servesGraph(g, a.Compiled):
			if e.verifyDecoded(k, a.Compiled) {
				e.storeHits.Add(1)
				tr.SetAttrs(sd, trace.Bool("hit", true))
				tr.End(sd)
				return a.Compiled, nil
			}
			// The CRC matched but the program is illegal for the machine
			// model — semantically corrupt. Same treatment as a checksum
			// failure: purge the file and fall back to compiling.
			e.storeErrors.Add(1)
			st.Remove(k)
		case err == nil:
			// Internally consistent artifact, but it does not serve the
			// graph at hand — crafted or foreign content at this key.
			// Purge it and compile; the persist below replaces it.
			e.storeErrors.Add(1)
			st.Remove(k)
		case errors.Is(err, artifact.ErrNotFound):
			e.storeMisses.Add(1)
		default:
			// A damaged artifact is not fatal — recompile. StoreErrors
			// alone tracks it (StoreMisses means "no artifact for the
			// key", and the store evicts the corpse so the recompile's
			// persist can land).
			e.storeErrors.Add(1)
		}
		tr.SetAttrs(sd, trace.Bool("hit", false))
		tr.End(sd)
	}
	cs := tr.Begin("compile", parent)
	tr.SetAttrs(cs, trace.Int("nodes", int64(g.NumNodes())))
	c, err := compiler.Compile(g, k.Config, k.Options)
	tr.End(cs)
	if err == nil && e.opts.Store != nil {
		a := &artifact.Artifact{Fingerprint: k.Fingerprint, Options: k.Options, Compiled: c}
		e.persists.Add(1)
		go func() {
			defer e.persists.Done()
			if perr := e.opts.Store.Put(a); perr != nil {
				e.storeErrors.Add(1)
			}
		}()
	}
	return c, err
}

// Preload decodes artifacts from the backing store into the compile
// cache — the warm-start step a server runs at boot so its first
// requests are cache hits, not compilations. It stops once the cache
// is full: decoding a 10,000-artifact store into a 256-entry cache
// would pay the whole decode bill only to evict immediately, and the
// reported count would lie about what is resident. Artifacts that fail
// to decode are skipped (and counted in Stats.StoreErrors); n reports
// how many programs were actually cached. Without a store, Preload is
// a no-op.
func (e *Engine) Preload() (n int, err error) {
	st := e.opts.Store
	if st == nil {
		return 0, nil
	}
	err = st.Walk(func(path string, a *artifact.Artifact, derr error) bool {
		if derr != nil {
			// Another binary's format version is a legitimate neighbor in
			// a shared store (mixed-version fleet), not damage; only real
			// corruption feeds the operator-facing error counter.
			if !errors.Is(derr, artifact.ErrVersion) {
				e.storeErrors.Add(1)
			}
			return true
		}
		k := a.Key()
		if !e.verifyDecoded(k, a.Compiled) {
			// Same gate as the decode path: an illegal program must not
			// warm-start into the serving cache. Purge it so the next
			// compile of the key persists a clean replacement.
			e.storeErrors.Add(1)
			st.Remove(k)
			return true
		}
		e.mu.Lock()
		full := len(e.entries) >= e.opts.CacheSize
		if _, ok := e.entries[k]; !ok && !full {
			ent := &entry{key: k, done: make(chan struct{}), c: a.Compiled}
			close(ent.done)
			e.entries[k] = ent
			e.pushFront(ent)
			n++
			e.preloaded.Add(1)
			full = len(e.entries) >= e.opts.CacheSize
		}
		e.mu.Unlock()
		return !full
	})
	return n, err
}

// Flush waits for every asynchronous artifact persist started so far.
// Servers call it on shutdown so a drained process leaves a complete
// store behind; tests call it before asserting store contents.
func (e *Engine) Flush() { e.persists.Wait() }

// dropPoisoned removes a completed entry from the cache, and its
// artifact from the store, if it is still the resident one for k,
// reporting whether this caller won the removal (concurrent droppers of
// the same entry get false). The store file goes under e.mu: no compile
// of k can start, and so none can re-persist k, while the entry is
// resident.
func (e *Engine) dropPoisoned(k artifact.Key, ent *entry) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.entries[k] != ent {
		return false
	}
	delete(e.entries, k)
	e.unlink(ent)
	if st := e.opts.Store; st != nil {
		st.Remove(k)
	}
	return true
}

// moveToFront marks ent most recently used. Caller holds e.mu.
func (e *Engine) moveToFront(ent *entry) {
	if e.head == ent {
		return
	}
	e.unlink(ent)
	e.pushFront(ent)
}

// pushFront links ent at the head. Caller holds e.mu.
func (e *Engine) pushFront(ent *entry) {
	ent.prev, ent.next = nil, e.head
	if e.head != nil {
		e.head.prev = ent
	}
	e.head = ent
	if e.tail == nil {
		e.tail = ent
	}
}

// unlink removes ent from the LRU list. Caller holds e.mu.
func (e *Engine) unlink(ent *entry) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else if e.head == ent {
		e.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else if e.tail == ent {
		e.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

// evictLocked drops least-recently-used completed entries until the
// cache fits its bound. In-flight compilations are never evicted (their
// waiters hold the entry), so the cache may transiently exceed the bound
// while many distinct graphs compile at once. Caller holds e.mu.
func (e *Engine) evictLocked() {
	for ent := e.tail; ent != nil && len(e.entries) > e.opts.CacheSize; {
		victim := ent
		ent = ent.prev
		if !victim.completed() {
			continue
		}
		delete(e.entries, victim.key)
		e.unlink(victim)
		e.evictions++
	}
}

// getEvaluator leases an idle evaluator or builds a new one. The free
// list is a plain mutex-guarded slice rather than a sync.Pool on
// purpose: a sync.Pool drops idle items across GC cycles, and a busy
// server collects hundreds of times a second, so every lease would
// regrow its value scratch.
func (e *Engine) getEvaluator() *sim.FuncEvaluator {
	e.freeMu.Lock()
	defer e.freeMu.Unlock()
	if n := len(e.free); n > 0 {
		f := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return f
	}
	return new(sim.FuncEvaluator)
}

// putEvaluator returns an evaluator to the free list, dropping it to
// the GC when the list is full.
func (e *Engine) putEvaluator(f *sim.FuncEvaluator) {
	e.freeMu.Lock()
	if len(e.free) < e.maxFree {
		e.free = append(e.free, f)
	}
	e.freeMu.Unlock()
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
	workers := min(e.opts.Workers, passes)
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
	s.Preloaded = e.preloaded.Load()
	s.Verified = e.verified.Load()
	s.VerifyRejects = e.verifyRejects.Load()
	return s
}
