package engine

// Tracing entry point: the server's compile step calls this instead of
// Compile when its request carries a trace, so the engine's cache
// interaction decomposes into named spans — resolve (the whole cache
// interaction), store_decode and compile (where a miss actually went).
// The scheduler records each chunk's execute span itself. With a nil
// trace it is exactly Compile: tracing is an overlay, never a second
// code path.

import (
	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/trace"
)

// CompileTraced is Compile recording a "resolve" span (with the graph
// fingerprint and cache-hit outcome) against tr; on a miss the span
// nests "store_decode" and/or "compile" children.
func (e *Engine) CompileTraced(g *dag.Graph, cfg arch.Config, opts compiler.Options, tr *trace.Trace) (*compiler.Compiled, error) {
	if tr == nil {
		return e.Compile(g, cfg, opts)
	}
	sp := tr.Begin("resolve", 0)
	c, err, hit := e.compile(g, cfg, opts, tr, sp)
	tr.SetAttrs(sp,
		trace.Str("fingerprint", g.Fingerprint().Short()),
		trace.Bool("cache_hit", hit))
	tr.End(sp)
	return c, err
}
