package compiler

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
)

func TestPartitionBoundsAndMonotonic(t *testing.T) {
	g := testGraph(21, 5000)
	part := Partition(g, 500)
	counts := map[int32]int{}
	last := int32(0)
	for i := 0; i < g.NumNodes(); i++ {
		p := part[i]
		if p < last {
			t.Fatalf("partition ids must be monotone over topological order")
		}
		last = p
		if !g.Op(dag.NodeID(i)).IsLeaf() {
			counts[p]++
		}
	}
	for p, c := range counts {
		if c > 500+1 {
			t.Fatalf("partition %d holds %d interior nodes, cap 500", p, c)
		}
	}
	if len(counts) < 5 {
		t.Fatalf("expected several partitions, got %d", len(counts))
	}
	// Acyclicity across partitions: edges never point to later partitions.
	for i := 0; i < g.NumNodes(); i++ {
		for _, a := range g.Args(dag.NodeID(i)) {
			if part[a] > part[i] {
				t.Fatalf("edge %d->%d crosses partitions backwards", a, i)
			}
		}
	}
}

func TestPartitionKeysOrdering(t *testing.T) {
	g := testGraph(23, 1000)
	dfs := dag.DFSOrder(g)
	keys := partitionKeys(nil, g, dfs, 100)
	part := Partition(g, 100)
	for i := 1; i < g.NumNodes(); i++ {
		if part[i] > part[i-1] && keys[i] <= keys[i-1] {
			t.Fatalf("keys must order later partitions after earlier ones")
		}
	}
	// Without partitioning, keys equal DFS order.
	flat := partitionKeys(nil, g, dfs, 0)
	for i, k := range flat {
		if k != int64(dfs[i]) {
			t.Fatalf("flat keys should equal DFS order")
		}
	}
}

func TestPartitionedCompileStillCorrect(t *testing.T) {
	// The large-PC flow: partitioned decomposition must not change
	// functional behaviour, only block locality.
	g := pc.Build(pc.LargeSuite()[0], 0.01)
	for _, size := range []int{0, 400} {
		c, err := Compile(g, arch.MinEDP(), Options{PartitionSize: size})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if c.Stats.Blocks == 0 {
			t.Fatalf("size=%d: no blocks", size)
		}
	}
}
