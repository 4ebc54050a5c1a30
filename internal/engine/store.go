package engine

import (
	"errors"

	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/trace"
	"dpuv2/internal/verify"
)

// maxVerified bounds the verification memo; past it the memo is
// cleared (re-verifying is correct, just slower) rather than grown.
const maxVerified = 4096

// verifiedDigest reports whether the payload named d has passed
// verifyDecoded; the store serving-decodes exactly those.
func (e *Engine) verifiedDigest(d artifact.Digest) bool {
	e.verifyMu.Lock()
	_, ok := e.verifiedDigests[d]
	e.verifyMu.Unlock()
	return ok
}

// verifyDecoded statically verifies a decoded artifact before the
// engine trusts it, memoized per payload digest: the verifier runs once
// per distinct content, however often it is decoded, and a file
// replaced at the same address is verified anew. A serving-decoded
// artifact passes unchecked, since the store decodes one only for a
// digest verifiedDigest reported. A false return (counted in
// Stats.VerifyRejects) means the program carries error-severity
// findings and must be treated like a checksum failure.
func (e *Engine) verifyDecoded(a *artifact.Artifact) bool {
	if a.Serving() || e.verifiedDigest(a.Digest) {
		return true
	}
	if fs := verify.Compiled(a.Compiled); verify.HasErrors(fs) {
		e.verifyRejects.Add(1)
		return false
	}
	e.verified.Add(1)
	e.verifyMu.Lock()
	if len(e.verifiedDigests) >= maxVerified {
		clear(e.verifiedDigests)
	}
	e.verifiedDigests[a.Digest] = struct{}{}
	e.verifyMu.Unlock()
	return true
}

// resolveMiss produces the compiled program for a cache miss: a backing
// store is consulted first (a decoded artifact is bit-identical to a
// fresh compilation and much cheaper; one whose payload was verified
// before is serving-decoded, without its instructions); otherwise the
// graph is compiled and, on success, persisted to the store off the
// request path. The store consult and the compilation record spans
// under parent when a trace rides the miss (tr and every span handle
// are nil-safe).
func (e *Engine) resolveMiss(g *dag.Graph, k artifact.Key, tr *trace.Trace, parent int) (*compiler.Compiled, error) {
	if st := e.opts.Store; st != nil {
		sd := tr.Begin("store_decode", parent)
		switch a, err := st.GetServing(k, e.verifiedDigest); {
		case err == nil && servesGraph(g, a.Compiled):
			if e.verifyDecoded(a) {
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
// to decode are skipped (and counted in Stats.StoreErrors), as are
// artifacts another compiler revision built (counted in
// Stats.StoreStale and left in place); n reports how many programs were
// actually cached. Without a store, Preload is a no-op.
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
		if a.Compiled.Revision != compiler.Revision {
			// Cached, it would hold a slot under a key no request of
			// this build forms; another binary of the fleet may still
			// serve it, so it stays.
			e.storeStale.Add(1)
			return true
		}
		k := a.Key()
		if !e.verifyDecoded(a) {
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
			ent.elem = e.lru.PushFront(ent)
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
