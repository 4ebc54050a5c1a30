package sim

import (
	"fmt"

	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// maxLanes is the widest pass: the vectors of one scheduler chunk.
const maxLanes = 32

// laneBudget bounds a pass's scratch at 2 MiB of float64s: a graph of
// more than laneBudget/maxLanes nodes runs with fewer lanes, and one of
// more than laneBudget nodes with one, the footprint of a one-vector walk.
const laneBudget = 1 << 18

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
// A batch is evaluated node-major, the paper's premise applied to the
// host: one node holds too little arithmetic to pay for its own
// dispatch, so each walk of the graph carries up to 32 vectors ("lanes")
// through a [node][lane] scratch, and every node's dispatch is paid once
// per pass instead of once per vector. Lanes never mix: lane l of a row
// is computed only from lane l of its argument rows.
//
// The zero value is ready to use and serves any program on any
// configuration. An evaluator is not safe for concurrent use — lease
// one per goroutine — but is reusable: the scratch grows to the largest
// nodes × lanes product seen (at most max(8·nodes bytes, 2 MiB) per
// graph; 709 kB for tretail@0.25 at 32 lanes) and is overwritten by
// every pass, so steady-state execution allocates nothing.
type FuncEvaluator struct {
	vals []float64
}

// PassWidth is the number of lanes in a full pass over g:
// min(32, max(1, 2^18/nodes)), so a pass's scratch stays within
// max(8·nodes bytes, 2 MiB).
func PassWidth(g *dag.Graph) int {
	return min(maxLanes, max(1, laneBudget/max(g.NumNodes(), 1)))
}

// ExecuteBatchInto evaluates c's binarized graph for every input vector
// of batches (each in graph-input order), writing item i's sink values
// into outs[i] in c.Graph.Outputs() order and its error into errs[i].
// An item with the wrong input arity or output length fails in its own
// slot and takes no lane; the others run in passes of
// min(items, PassWidth(c.Graph)) lanes.
//
// The walk mirrors dag.Eval exactly — the reference the Machine is
// conformance-tested against — node by node in topological (id) order,
// each node one binary operation on its two argument rows in Args
// order, so each lane performs the same float64 operations in the same
// order as a one-vector walk and every output matches the machine's bit
// for bit. A graph with an add or mul node of any other arity fails
// every item of the pass: compiled graphs are binarized.
func (f *FuncEvaluator) ExecuteBatchInto(c *compiler.Compiled, batches, outs [][]float64, errs []error) {
	g := c.Graph
	n := g.NumNodes()
	width := min(len(batches), PassWidth(g))
	sinks := g.Outputs()
	var items [maxLanes]int        // batch index of each lane
	var inputs [maxLanes][]float64 // input vector of each lane
	for i := 0; i < len(batches); {
		w := 0
		for ; i < len(batches) && w < width; i++ {
			switch {
			case len(batches[i]) != len(c.InputWord):
				errs[i] = fmt.Errorf("sim: %d inputs provided, graph has %d", len(batches[i]), len(c.InputWord))
			case len(outs[i]) != len(sinks):
				errs[i] = fmt.Errorf("sim: output buffer has %d slots, graph has %d sinks", len(outs[i]), len(sinks))
			default:
				items[w], inputs[w] = i, batches[i]
				w++
			}
		}
		if w == 0 {
			continue
		}
		if cap(f.vals) < n*w {
			f.vals = make([]float64, n*w)
		}
		vals := f.vals[:n*w]
		err := walk(g, vals, inputs[:w])
		for l, item := range items[:w] {
			errs[item] = err
			if err == nil {
				for k, sink := range sinks {
					outs[item][k] = vals[int(sink)*w+l]
				}
			}
		}
	}
}

// walk evaluates g once over vals, a [node][lane] scratch with one lane
// per input vector. Every add and mul node is binary: the compiler and
// the artifact decoder accept only binarized graphs.
func walk(g *dag.Graph, vals []float64, inputs [][]float64) error {
	w, next := len(inputs), 0
	for i := 0; i < g.NumNodes(); i++ {
		nd := g.Node(dag.NodeID(i))
		dst := vals[i*w : i*w+w]
		switch nd.Op {
		case dag.OpInput:
			for l, in := range inputs {
				dst[l] = in[next]
			}
			next++
		case dag.OpConst:
			for l := range dst {
				dst[l] = nd.Val
			}
		case dag.OpAdd, dag.OpMul:
			if len(nd.Args) != 2 {
				return fmt.Errorf("sim: node %d has %d args, graph not binarized", i, len(nd.Args))
			}
			x, y := int(nd.Args[0])*w, int(nd.Args[1])*w
			xs, ys := vals[x:x+w], vals[y:y+w]
			if nd.Op == dag.OpAdd {
				for l := range dst {
					dst[l] = xs[l] + ys[l]
				}
			} else {
				for l := range dst {
					dst[l] = xs[l] * ys[l]
				}
			}
		default:
			return fmt.Errorf("sim: node %d has unknown op %v", i, nd.Op)
		}
	}
	return nil
}
