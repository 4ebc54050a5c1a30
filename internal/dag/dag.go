// Package dag provides the directed-acyclic-graph intermediate
// representation shared by every subsystem of the DPU-v2 reproduction:
// workload generators lower into it, the compiler consumes it, and the
// simulator's results are verified against its reference evaluator.
//
// A Graph is an append-only arena of nodes. Nodes may only reference
// already-existing nodes as arguments, so every Graph is acyclic by
// construction and node IDs form a valid topological order.
package dag

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Op is the operation performed by a node. The DPU-v2 datapath supports
// addition, multiplication and operand bypass; workloads with other
// arithmetic (e.g. SpTRSV's subtract/divide) are normalized to {+,×} by
// pre-negating and pre-inverting constants at lowering time (§II of the
// paper restricts DAGs to arithmetic nodes).
type Op uint8

const (
	// OpInput is an external input of the DAG (a leaf). Its value is
	// provided at execution time.
	OpInput Op = iota
	// OpConst is a compile-time constant leaf (e.g. a pre-inverted
	// diagonal element of a triangular matrix).
	OpConst
	// OpAdd sums its two arguments.
	OpAdd
	// OpMul multiplies its two arguments.
	OpMul
)

// String returns the conventional lowercase mnemonic for the op.
func (op Op) String() string {
	switch op {
	case OpInput:
		return "input"
	case OpConst:
		return "const"
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsLeaf reports whether the op takes no arguments.
func (op Op) IsLeaf() bool { return op == OpInput || op == OpConst }

// NodeID identifies a node within one Graph. IDs are dense, start at 0,
// and are assigned in insertion (hence topological) order.
type NodeID int32

// InvalidNode is the zero-information NodeID.
const InvalidNode NodeID = -1

// Node is a single operation in the DAG. Leaf nodes (Input, Const) have no
// arguments; interior nodes have one or more. The compiler runs on
// Binarize's form, in which every interior node has exactly two.
type Node struct {
	Op   Op
	Args []NodeID
	// Val holds the constant value for OpConst nodes and is ignored
	// otherwise.
	Val float64
}

// Graph is an arena of nodes plus optional bookkeeping. The zero value is
// an empty usable graph.
//
// A fully built graph is safe for concurrent readers (Succs, Fanout,
// Outputs, …): the derived adjacency and sinks are memoized behind
// atomic pointers, so parallel compilations may share one workload
// graph. Mutation (Add*) is not safe concurrently with anything else.
type Graph struct {
	// Name labels the workload for reports (e.g. "mnist", "jagmesh4").
	Name  string
	nodes []Node

	// memoized successor lists (see Succs), invalidated on mutation
	succs atomic.Pointer[[][]NodeID]
	// memoized sinks (see Outputs), invalidated on mutation
	outputs atomic.Pointer[[]NodeID]
	// memoized content hash (see Fingerprint), invalidated on mutation
	fp atomic.Pointer[Fingerprint]
}

// New returns an empty graph with the given display name.
func New(name string) *Graph { return &Graph{Name: name} }

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Grow reserves arena capacity for n additional nodes, so bulk loaders
// (deserializers, generators) avoid repeated reallocation of a
// multi-million-node arena.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(g.nodes) - len(g.nodes); free < n {
		nodes := make([]Node, len(g.nodes), len(g.nodes)+n)
		copy(nodes, g.nodes)
		g.nodes = nodes
	}
}

// Node returns the node with the given id. The returned pointer stays
// valid until the next Add* call.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Op returns the op of node id.
func (g *Graph) Op(id NodeID) Op { return g.nodes[id].Op }

// Args returns the argument list of node id. Callers must not mutate it.
func (g *Graph) Args(id NodeID) []NodeID { return g.nodes[id].Args }

// AddInput appends an external-input leaf and returns its id.
func (g *Graph) AddInput() NodeID {
	return g.append(Node{Op: OpInput})
}

// AddConst appends a constant leaf with value v and returns its id.
func (g *Graph) AddConst(v float64) NodeID {
	return g.append(Node{Op: OpConst, Val: v})
}

// AddOp appends an interior node computing op over args and returns its
// id. It panics if op is a leaf op, args is empty, or any argument does
// not yet exist (which preserves acyclicity by construction).
func (g *Graph) AddOp(op Op, args ...NodeID) NodeID {
	if op.IsLeaf() {
		panic("dag: AddOp with leaf op " + op.String())
	}
	if len(args) == 0 {
		panic("dag: AddOp with no arguments")
	}
	n := NodeID(len(g.nodes))
	for _, a := range args {
		if a < 0 || a >= n {
			panic(fmt.Sprintf("dag: argument %d out of range [0,%d)", a, n))
		}
	}
	return g.append(Node{Op: op, Args: append([]NodeID(nil), args...)})
}

func (g *Graph) append(n Node) NodeID {
	g.invalidate()
	g.nodes = append(g.nodes, n)
	return NodeID(len(g.nodes) - 1)
}

func (g *Graph) invalidate() {
	g.succs.Store(nil)
	g.outputs.Store(nil)
	g.fp.Store(nil)
}

// Succs returns the successor (consumer) list of node id. The underlying
// adjacency is computed once and cached; callers must not mutate the
// returned slice.
func (g *Graph) Succs(id NodeID) []NodeID {
	return g.ensureSuccs()[id]
}

// Fanout returns the number of consumers of node id.
func (g *Graph) Fanout(id NodeID) int {
	return len(g.ensureSuccs()[id])
}

func (g *Graph) ensureSuccs() [][]NodeID {
	if p := g.succs.Load(); p != nil {
		return *p
	}
	counts := make([]int32, len(g.nodes))
	for i := range g.nodes {
		for _, a := range g.nodes[i].Args {
			counts[a]++
		}
	}
	// One backing array for all adjacency lists keeps the memory layout
	// compact for multi-million-node graphs.
	backing := make([]NodeID, g.NumEdges())
	succs := make([][]NodeID, len(g.nodes))
	off := 0
	for i, c := range counts {
		succs[i] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for i := range g.nodes {
		for _, a := range g.nodes[i].Args {
			succs[a] = append(succs[a], NodeID(i))
		}
	}
	// Concurrent first readers may compute the lists twice; the results
	// are identical, and the CAS keeps every reader on one winner.
	g.succs.CompareAndSwap(nil, &succs)
	return *g.succs.Load()
}

// Outputs returns the sink nodes (fanout zero) of the graph, in id order.
// These are the externally observable results of executing the DAG.
// They are memoized apart from the successor lists: a served graph
// needs its sinks on every request and its successors never, so one
// mark pass over the arguments finds them.
func (g *Graph) Outputs() []NodeID {
	if p := g.outputs.Load(); p != nil {
		return *p
	}
	used := make([]bool, len(g.nodes))
	sinks := len(g.nodes)
	for i := range g.nodes {
		for _, a := range g.nodes[i].Args {
			if !used[a] {
				used[a] = true
				sinks--
			}
		}
	}
	out := make([]NodeID, 0, sinks)
	for i, u := range used {
		if !u {
			out = append(out, NodeID(i))
		}
	}
	g.outputs.CompareAndSwap(nil, &out)
	return *g.outputs.Load()
}

// Inputs returns the ids of all OpInput leaves in id order.
func (g *Graph) Inputs() []NodeID {
	var in []NodeID
	for i := range g.nodes {
		if g.nodes[i].Op == OpInput {
			in = append(in, NodeID(i))
		}
	}
	return in
}

// NumEdges returns the total number of argument references.
func (g *Graph) NumEdges() int {
	e := 0
	for i := range g.nodes {
		e += len(g.nodes[i].Args)
	}
	return e
}

// Validate checks structural invariants: argument ids in range and
// strictly less than the node's own id (topological construction order),
// correct arity per op class, and at least one node. It returns the first
// violation found.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("dag: empty graph")
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		switch {
		case n.Op.IsLeaf():
			if len(n.Args) != 0 {
				return fmt.Errorf("dag: leaf node %d has %d args", i, len(n.Args))
			}
		default:
			if len(n.Args) == 0 {
				return fmt.Errorf("dag: interior node %d has no args", i)
			}
		}
		for _, a := range n.Args {
			if a < 0 || int(a) >= i {
				return fmt.Errorf("dag: node %d references %d (not topologically earlier)", i, a)
			}
		}
	}
	return nil
}

// IsBinary reports whether every interior node has exactly two
// arguments, i.e. the graph maps node for node onto the 2-input PEs.
func (g *Graph) IsBinary() bool {
	for i := range g.nodes {
		if n := &g.nodes[i]; !n.Op.IsLeaf() && len(n.Args) != 2 {
			return false
		}
	}
	return true
}
