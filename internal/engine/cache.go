package engine

import (
	"container/list"
	"fmt"
	"sync/atomic"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/trace"
)

// entry is one cache slot. done is closed when the single-flight
// compilation finishes; waiters then read c/err.
type entry struct {
	key  artifact.Key  // content address: fingerprint, normalized config, compiler options
	elem *list.Element // its place in Engine.lru
	done chan struct{}
	c    *compiler.Compiled
	err  error
	// sinks memoizes the sinks of the client graphs c serves, set once
	// a graph with key's fingerprint has been checked against c: at its
	// compile or store decode, or at the first hit on a preloaded entry.
	// Nil until then; a hit builds no graph once it is set.
	sinks atomic.Pointer[[]dag.NodeID]
}

func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Program returns the compiled program for the content address (fp,
// cfg, opts) and the sinks of the client graph fp names, compiling at
// most once per address: concurrent callers for the same key share one
// compilation, and later callers hit the cache. graph builds the client
// graph; it is called only on a miss and on the first hit on a
// preloaded entry, whose program is checked against it before it is
// served. That is sound because servesGraph reads only the graph's node
// count and sinks, and both are functions of the structure fp names.
// An error from graph fails the call as a compile error does, but a
// preloaded entry stays resident: its program is not at fault.
// Compilation failures surface to every waiting caller and are not
// cached, so a transient failure does not poison the key. A "resolve"
// span with the fingerprint and cache outcome is recorded against tr
// (nil records nothing); a miss nests store_decode and/or compile under
// it.
func (e *Engine) Program(fp dag.Fingerprint, graph func() (*dag.Graph, error), cfg arch.Config, opts compiler.Options, tr *trace.Trace) (*compiler.Compiled, []dag.NodeID, error) {
	sp := tr.Begin("resolve", 0)
	k := artifact.KeyFor(fp, cfg, opts)
	e.mu.Lock()
	ent, hit := e.entries[k]
	if hit {
		e.hits++
		e.lru.MoveToFront(ent.elem)
	} else {
		e.misses++
		ent = &entry{key: k, done: make(chan struct{})}
		e.entries[k] = ent
		ent.elem = e.lru.PushFront(ent)
		e.evictLocked()
	}
	e.mu.Unlock()
	if !hit {
		e.fill(ent, graph, tr, sp)
	}
	c, sinks, err := e.answer(ent, graph)
	if tr != nil {
		tr.SetAttrs(sp, trace.Str("fingerprint", fp.Short()), trace.Bool("cache_hit", hit))
		tr.End(sp)
	}
	return c, sinks, err
}

// Compile returns the compiled program for (g, cfg, opts): Program for
// a caller that holds the graph.
func (e *Engine) Compile(g *dag.Graph, cfg arch.Config, opts compiler.Options) (*compiler.Compiled, error) {
	c, _, err := e.Program(g.Fingerprint(), func() (*dag.Graph, error) { return g, nil }, cfg, opts, nil)
	return c, err
}

// fill builds the graph of the miss ent was inserted for, resolves it
// and completes ent; a failed entry leaves the cache so the next call
// misses again.
func (e *Engine) fill(ent *entry, graph func() (*dag.Graph, error), tr *trace.Trace, parent int) {
	g, err := graph()
	var c *compiler.Compiled
	if err == nil {
		c, err = e.resolveMiss(g, ent.key, tr, parent)
	}
	var sinks []dag.NodeID
	if err == nil {
		sinks = g.Outputs() // resolveMiss returns only a program that serves g
	}
	e.mu.Lock()
	ent.c, ent.err = c, err
	if err == nil {
		ent.sinks.Store(&sinks)
	} else if e.entries[ent.key] == ent {
		delete(e.entries, ent.key)
		e.lru.Remove(ent.elem)
	}
	close(ent.done) // before evictLocked, which skips unfinished entries
	// Re-apply the bound: inserts that happened while every resident
	// entry was still compiling could not evict anything.
	e.evictLocked()
	e.mu.Unlock()
}

// answer waits for ent and serves it. A program the engine compiled or
// decoded always serves its graph, but a preloaded artifact is only
// validated against its own content, so its first hit checks it against
// graph; one that does not serve it is evicted (cache and store) so the
// next request recompiles cleanly.
func (e *Engine) answer(ent *entry, graph func() (*dag.Graph, error)) (*compiler.Compiled, []dag.NodeID, error) {
	<-ent.done
	if ent.err != nil {
		return nil, nil, ent.err
	}
	if sinks := ent.sinks.Load(); sinks != nil {
		return ent.c, *sinks, nil
	}
	g, err := graph()
	if err != nil {
		return nil, nil, err
	}
	if !servesGraph(g, ent.c) {
		// Only the caller that actually evicts the entry purges the
		// store file, and it does so before any retry can miss: a late
		// purge would delete the artifact the retry's compile has
		// re-persisted (nothing would re-persist it until the good entry
		// leaves the cache).
		if e.dropPoisoned(ent) {
			e.storeErrors.Add(1)
		}
		return nil, nil, fmt.Errorf("engine: cached program for %s does not map the graph's %d nodes and sinks onto its own (poisoned artifact evicted; retry recompiles)",
			ent.key.Fingerprint.Short(), g.NumNodes())
	}
	sinks := g.Outputs()
	ent.sinks.Store(&sinks)
	return ent.c, sinks, nil
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

// dropPoisoned removes a completed entry from the cache, and its
// artifact from the store, if it is still the resident one for its key,
// reporting whether this caller won the removal (concurrent droppers of
// the same entry get false). The store file goes under e.mu: no compile
// of the key can start, and so none can re-persist it, while the entry
// is resident.
func (e *Engine) dropPoisoned(ent *entry) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.entries[ent.key] != ent {
		return false
	}
	delete(e.entries, ent.key)
	e.lru.Remove(ent.elem)
	if st := e.opts.Store; st != nil {
		st.Remove(ent.key)
	}
	return true
}

// evictLocked drops least-recently-used completed entries until the
// cache fits its bound. In-flight compilations are never evicted (their
// waiters hold the entry), so the cache may transiently exceed the bound
// while many distinct graphs compile at once. Caller holds e.mu.
func (e *Engine) evictLocked() {
	for el := e.lru.Back(); el != nil && len(e.entries) > e.opts.CacheSize; {
		victim := el.Value.(*entry)
		el = el.Prev()
		if !victim.completed() {
			continue
		}
		delete(e.entries, victim.key)
		e.lru.Remove(victim.elem)
		e.evictions++
	}
}
