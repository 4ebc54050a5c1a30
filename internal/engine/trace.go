package engine

// Tracing entry points: the scheduler (sched.TracedBackend) calls these
// instead of Compile/ExecuteBatchInto when a batch carries a trace, so
// the engine's share of a request's latency decomposes into named spans
// — resolve (the whole cache interaction), store_decode and compile
// (where a miss actually went), execute (the leased-evaluator batch
// window). With a nil trace both are exactly their untraced twins:
// tracing is an overlay, never a second code path.

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

// ExecuteBatchIntoTraced is ExecuteBatchInto recording an "execute"
// span (batch size) against tr.
func (e *Engine) ExecuteBatchIntoTraced(c *compiler.Compiled, batches, outs [][]float64, cycles []int, errs []error, tr *trace.Trace) {
	if tr == nil {
		e.ExecuteBatchInto(c, batches, outs, cycles, errs)
		return
	}
	sp := tr.Begin("execute", 0)
	tr.SetAttrs(sp, trace.Int("batch_size", int64(len(batches))))
	e.ExecuteBatchInto(c, batches, outs, cycles, errs)
	tr.End(sp)
}
