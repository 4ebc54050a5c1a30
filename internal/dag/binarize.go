package dag

import "math"

// Binarize returns a graph in which every interior node has exactly two
// arguments, by expanding k-ary nodes (k>2) into balanced trees of 2-input
// nodes of the same op, and widening 1-ary nodes into a 2-input op with a
// neutral constant (−0 for add, 1 for mul). The compiler requires a binary
// DAG so that nodes map one-to-one onto the 2-input PEs (§IV-A).
//
// The second return value maps each original node id to the id of the node
// computing its value in the binarized graph.
func Binarize(g *Graph) (*Graph, []NodeID) {
	out := New(g.Name)
	// The output size is known up front: a k-ary node becomes max(1, k−1)
	// binary ones, and 1-ary adds / muls share one neutral constant each.
	size, unaryAdd, unaryMul := 0, 0, 0
	for i := range g.nodes {
		switch n := &g.nodes[i]; {
		case len(n.Args) > 2:
			size += len(n.Args) - 1
		case len(n.Args) == 1 && n.Op == OpAdd:
			size, unaryAdd = size+1, 1
		case len(n.Args) == 1:
			size, unaryMul = size+1, 1
		default:
			size++
		}
	}
	out.Grow(size + unaryAdd + unaryMul)
	remap := make([]NodeID, g.NumNodes())
	// Neutral-element constants are created lazily and shared.
	var zeroID, oneID NodeID = InvalidNode, InvalidNode
	neutral := func(op Op) NodeID {
		if op == OpAdd {
			if zeroID == InvalidNode {
				// −0, not +0: x + (−0) is x bit for bit for every x,
				// while −0 + (+0) is +0.
				zeroID = out.AddConst(math.Copysign(0, -1))
			}
			return zeroID
		}
		if oneID == InvalidNode {
			oneID = out.AddConst(1)
		}
		return oneID
	}

	var reduce func(op Op, args []NodeID) NodeID
	reduce = func(op Op, args []NodeID) NodeID {
		switch len(args) {
		case 1:
			return args[0]
		case 2:
			return out.AddOp(op, args[0], args[1])
		default:
			mid := len(args) / 2
			l := reduce(op, args[:mid])
			r := reduce(op, args[mid:])
			return out.AddOp(op, l, r)
		}
	}

	scratch := make([]NodeID, 0, 16)
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		switch {
		case n.Op == OpInput:
			remap[i] = out.AddInput()
		case n.Op == OpConst:
			remap[i] = out.AddConst(n.Val)
		case len(n.Args) == 1:
			remap[i] = out.AddOp(n.Op, remap[n.Args[0]], neutral(n.Op))
		default:
			scratch = scratch[:0]
			for _, a := range n.Args {
				scratch = append(scratch, remap[a])
			}
			remap[i] = reduce(n.Op, scratch)
		}
	}
	return out, remap
}
