package sim

import (
	"fmt"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// FuncEvaluator is the serving executor: it evaluates the compiled
// (binarized) graph directly instead of simulating the instruction
// stream. The static verifier proves every served program hazard-free,
// so the bookkeeping the machine model pays for on every run — register
// allocation replay, bank-port and crossbar checks, the landing ring —
// decides nothing about the outputs; the graph walk performs the same
// float64 operations in the same association order (each binarized node
// is one PE operation) and is therefore bit-exact with the Machine, at a
// fraction of the cost — the conformance matrix and the fuzz layer pin
// it over random DAG × config × input populations, non-finite values
// included. The one carve-out is NaN payload bits: IEEE 754 leaves
// payload propagation implementation-defined (hardware keeps the first
// operand's payload when two distinct NaNs meet, and instruction operand
// order is the compiler's choice), so the contract there is "both
// produce NaN". It reports no statistics because there is nothing to
// measure: cycles are c.Stats.Cycles and activity is StaticStats(c.Prog),
// both fixed at compile time.
//
// The zero value is ready to use and serves any program on any
// configuration. An evaluator is not safe for concurrent use — lease
// one per goroutine — but is reusable: the value scratch grows to the
// largest graph seen and is overwritten by every call, so steady-state
// execution allocates nothing.
type FuncEvaluator struct {
	vals []float64
}

// ExecuteInto evaluates c's binarized graph with the given inputs
// (graph-input order), writing sink values into out in
// c.Graph.Outputs() order. The walk mirrors dag.Eval exactly — the
// reference the Machine is conformance-tested against — node by node in
// topological (id) order, accumulating left-to-right, so
// ternary-and-wider nodes can never appear (the compiled graph is
// binary) and every operation matches the machine's bit for bit.
func (f *FuncEvaluator) ExecuteInto(c *compiler.Compiled, inputs, out []float64) error {
	if len(inputs) != len(c.InputWord) {
		return fmt.Errorf("sim: %d inputs provided, graph has %d", len(inputs), len(c.InputWord))
	}
	g := c.Graph
	outs := g.Outputs()
	if len(out) != len(outs) {
		return fmt.Errorf("sim: output buffer has %d slots, graph has %d sinks", len(out), len(outs))
	}
	n := g.NumNodes()
	if cap(f.vals) < n {
		f.vals = make([]float64, n)
	}
	vals := f.vals[:n]
	next := 0
	for i := 0; i < n; i++ {
		nd := g.Node(dag.NodeID(i))
		switch nd.Op {
		case dag.OpInput:
			vals[i] = inputs[next]
			next++
		case dag.OpConst:
			vals[i] = nd.Val
		case dag.OpAdd:
			acc := vals[nd.Args[0]]
			for _, a := range nd.Args[1:] {
				acc += vals[a]
			}
			vals[i] = acc
		case dag.OpMul:
			acc := vals[nd.Args[0]]
			for _, a := range nd.Args[1:] {
				acc *= vals[a]
			}
			vals[i] = acc
		default:
			return fmt.Errorf("sim: node %d has unknown op %v", i, nd.Op)
		}
	}
	for i, sink := range outs {
		out[i] = vals[sink]
	}
	return nil
}
