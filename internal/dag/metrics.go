package dag

// Stats summarizes the structural properties the paper reports in Table I
// plus a few extras used by the experiment harness.
type Stats struct {
	Nodes       int     // total node count (n)
	Interior    int     // arithmetic nodes (what the paper counts as operations)
	Edges       int     // argument references
	LongestPath int     // nodes on the longest leaf-to-sink path (l)
	AvgParallel float64 // n/l, the paper's average-parallelism proxy
	MaxFanout   int     // maximum outdegree Δ(G)
	Inputs      int
	Consts      int
	Outputs     int
}

// ComputeStats walks the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	depth := make([]int32, g.NumNodes())
	var maxDepth int32
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		switch n.Op {
		case OpInput:
			s.Inputs++
		case OpConst:
			s.Consts++
		default:
			s.Interior++
		}
		d := int32(1)
		for _, a := range n.Args {
			if depth[a]+1 > d {
				d = depth[a] + 1
			}
		}
		depth[i] = d
		if d > maxDepth {
			maxDepth = d
		}
		if f := g.Fanout(NodeID(i)); f > s.MaxFanout {
			s.MaxFanout = f
		}
	}
	s.Outputs = len(g.Outputs())
	s.LongestPath = int(maxDepth)
	if s.LongestPath > 0 {
		s.AvgParallel = float64(s.Nodes) / float64(s.LongestPath)
	}
	return s
}

// Depths returns, for every node, the number of nodes on the longest path
// from any leaf to that node (leaves have depth 1). This is the "level" of
// the node used by level-synchronous baselines.
func Depths(g *Graph) []int32 {
	depth := make([]int32, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		d := int32(1)
		for _, a := range g.Node(NodeID(i)).Args {
			if depth[a]+1 > d {
				d = depth[a] + 1
			}
		}
		depth[i] = d
	}
	return depth
}

// Levels partitions node ids by their Depths value, returning one slice
// per level starting at depth 1. All nodes within a level are mutually
// independent and may execute in parallel.
func Levels(g *Graph) [][]NodeID {
	depth := Depths(g)
	var maxD int32
	for _, d := range depth {
		if d > maxD {
			maxD = d
		}
	}
	levels := make([][]NodeID, maxD)
	for i, d := range depth {
		levels[d-1] = append(levels[d-1], NodeID(i))
	}
	return levels
}

// DFSOrder returns the order in which nodes are first visited by an
// iterative depth-first traversal that starts from every sink and walks
// arguments. The compiler uses occurrence distance in this order as the
// locality penalty when combining subgraphs into blocks (§IV-A, obj. D).
func DFSOrder(g *Graph) []int32 {
	order := make([]int32, g.NumNodes())
	for i := range order {
		order[i] = -1
	}
	var stack []NodeID
	next := int32(0)
	for _, out := range g.Outputs() {
		stack = append(stack[:0], out)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if order[n] >= 0 {
				continue
			}
			order[n] = next
			next++
			args := g.Args(n)
			// Push in reverse so the first argument is visited first.
			for i := len(args) - 1; i >= 0; i-- {
				if order[args[i]] < 0 {
					stack = append(stack, args[i])
				}
			}
		}
	}
	// Unreachable nodes (possible only in degenerate graphs) get trailing
	// positions so the order is total.
	for i := range order {
		if order[i] < 0 {
			order[i] = next
			next++
		}
	}
	return order
}
