package compiler

import "dpuv2/internal/dag"

// Partition assigns every node a coarse partition id by chunking the
// topological order into ranges of ≈size interior nodes. The paper uses
// the linear-time partitioner of GRAPHOPT [44] to split multi-million-node
// PCs into 20k-node partitions that are then decomposed into blocks
// independently (§V-B "Compilation time"); chunked topological order is
// the same contract — acyclic partition graph, bounded partition size —
// without the constrained-optimization machinery.
func Partition(g *dag.Graph, size int) []int32 {
	if size < 1 {
		size = 1
	}
	part := make([]int32, g.NumNodes())
	count, cur := 0, int32(0)
	for i := 0; i < g.NumNodes(); i++ {
		if count >= size {
			cur++
			count = 0
		}
		part[i] = cur
		if !g.Op(dag.NodeID(i)).IsLeaf() {
			count++
		}
	}
	return part
}

// partitionKeys combines partition ids with DFS order into the priority
// keys used by the block builder: earlier partitions drain completely
// before later ones begin, so each partition is decomposed independently.
// The keys go into dst's array when it is large enough.
func partitionKeys(dst []int64, g *dag.Graph, dfs []int32, size int) []int64 {
	keys := resize(dst, g.NumNodes())
	if size <= 0 {
		for i, d := range dfs {
			keys[i] = int64(d)
		}
		return keys
	}
	part := Partition(g, size)
	for i, d := range dfs {
		keys[i] = int64(part[i])<<32 | int64(d)
	}
	return keys
}
