package compiler

import (
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// Step 1 — block decomposition (§IV-A, algorithm 1).
//
// A node's cone (all of its not-yet-mapped ancestors) is schedulable on a
// depth-d subtree slot iff the longest chain of unmapped ancestors ending
// at the node is ≤ d; replication and bypass chains make any such cone fit
// (fig. 9(c)). Cone depth is tracked incrementally, capped at D+1
// ("unschedulable"), and only ever decreases as ancestors get mapped, so
// updates are cheap and monotone.
//
// Cones are cut greedily, one datapath-load ("DFS block") at a time: a
// seed is chosen from a small lookahead of the DFS-ordered candidate heap
// preferring the deepest cone (objective C: utilization), then remaining
// subtree slots — managed as a buddy allocator over dyadic subtrees — are
// filled with DFS-adjacent cones (objective D: locality keeps the values a
// block reads recently produced, which is what bounds register pressure).
//
// That DFS order is a good *cut* and a bad *schedule*: at least one cone of
// every DFS block reads the block just before it, so executed as cut the
// blocks form one serial chain and every exec waits the full D+1 pipeline
// latency for its predecessor. The cones are therefore re-binned into the
// blocks that are actually executed by scheduleCones (schedule.go), which
// keeps the DFS order's locality through a bounded window.
//
// Which nodes may seed a cone or sink a fill cone is the cut's policy.
// The greedy cut takes every schedulable node. The band cut takes only
// band level 0 (bandLevels): sinks, fan-out nodes, and every D-th node
// of a chain of single-consumer ancestors of one, so cones line up on
// D-level bands and each advances the critical path by up to D levels
// instead of the one or two a cone cut at a misaligned level gives. It
// wins where the DAG is wide; where the graph is one chain, a cone
// straddling two bands is exactly what is wanted and the greedy cut wins.
// decompose cuts both ways and keeps the cut whose block order issues
// sooner.

// cutPolicy selects the nodes step 1a's candidate heap accepts.
type cutPolicy uint8

const (
	cutAuto   cutPolicy = iota // cut both ways, keep the shorter schedule
	cutGreedy                  // every schedulable node
	cutBand                    // band level 0 only
)

// forcedCut is a test hook: any policy but cutAuto makes decompose cut
// that way alone.
var forcedCut cutPolicy

// idHeap is a binary min-heap of int32 ids ordered by less. Hand-rolled
// because container/heap boxes every pushed id into an interface.
type idHeap struct {
	items []int32
	less  func(a, b int32) bool
}

func (h *idHeap) push(x int32) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// pop removes and returns the least id; the heap must not be empty.
func (h *idHeap) pop() int32 {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.less(h.items[c], h.items[i]) {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}

// slotPool is a buddy allocator over subtree slots: a free slot of depth d
// is the full subtree rooted at a layer-d PE. Allocating depth d from a
// deeper slot splits it, releasing the sibling subtrees.
type slotPool struct {
	free [][]arch.PE // indexed by depth 1..D
}

func newSlotPool(cfg arch.Config) *slotPool {
	p := &slotPool{free: make([][]arch.PE, cfg.D+1)}
	p.reset(cfg)
	return p
}

// reset frees every slot: one full-depth subtree per tree.
func (p *slotPool) reset(cfg arch.Config) {
	for d := range p.free {
		p.free[d] = p.free[d][:0]
	}
	for t := 0; t < cfg.Trees(); t++ {
		p.free[cfg.D] = append(p.free[cfg.D], arch.PE{Tree: t, Layer: cfg.D, Index: 0})
	}
}

func (p *slotPool) maxDepth() int {
	for d := len(p.free) - 1; d >= 1; d-- {
		if len(p.free[d]) > 0 {
			return d
		}
	}
	return 0
}

func (p *slotPool) alloc(d int) (arch.PE, bool) {
	if d < 1 || d >= len(p.free) {
		return arch.PE{}, false
	}
	// Exact fit first.
	if len(p.free[d]) > 0 {
		s := p.free[d][len(p.free[d])-1]
		p.free[d] = p.free[d][:len(p.free[d])-1]
		return s, true
	}
	// Split the shallowest deeper slot.
	for dd := d + 1; dd < len(p.free); dd++ {
		if len(p.free[dd]) == 0 {
			continue
		}
		s := p.free[dd][len(p.free[dd])-1]
		p.free[dd] = p.free[dd][:len(p.free[dd])-1]
		for l := dd; l > d; l-- {
			// Keep the left child, free the right sibling.
			p.free[l-1] = append(p.free[l-1], arch.PE{Tree: s.Tree, Layer: l - 1, Index: 2*s.Index + 1})
			s = arch.PE{Tree: s.Tree, Layer: l - 1, Index: 2 * s.Index}
		}
		return s, true
	}
	return arch.PE{}, false
}

type decomposer struct {
	g      *dag.Graph
	cfg    arch.Config
	keys   []int64 // heap priority: (partition, DFS order)
	depth  []int32 // cone depth, capped at D+1; 0 for leaves/mapped
	mapped []bool
	inHeap []bool
	heap   idHeap  // candidate sinks by (partition, DFS order)
	band   []uint8 // band levels under cutBand; nil under cutGreedy
	// claim stamps avoid reallocating per-block sets.
	claim      []int32
	claimStamp int32
	visit      []int32
	visitStamp int32
	stack      []dag.NodeID // cone's traversal scratch
	interior   int          // interior nodes in g

	// Output: the cones in the order they were cut, the DFS block each
	// was cut for, and one arena backing every cone's node list.
	cones    []Subgraph
	dfsBlock []int32
	arena    []dag.NodeID
}

func newDecomposer(g *dag.Graph, cfg arch.Config, keys []int64) *decomposer {
	n := g.NumNodes()
	d := &decomposer{
		g: g, cfg: cfg, keys: keys,
		depth:  make([]int32, n),
		mapped: make([]bool, n),
		inHeap: make([]bool, n),
		heap:   idHeap{less: func(a, b int32) bool { return keys[a] < keys[b] }},
		claim:  make([]int32, n),
		visit:  make([]int32, n),
	}
	for i := 0; i < n; i++ {
		if !g.Op(dag.NodeID(i)).IsLeaf() {
			d.interior++
		}
	}
	return d
}

// reset starts a cut under policy (cutGreedy or cutBand), reusing the
// per-node scratch of the previous cut. The node arena is fresh: the
// previous cut's blocks still point into it.
func (d *decomposer) reset(policy cutPolicy) {
	g, n := d.g, d.g.NumNodes()
	d.band = nil
	if policy == cutBand {
		d.band = bandLevels(g, d.cfg.D)
	}
	clear(d.mapped)
	clear(d.inHeap)
	d.heap.items = d.heap.items[:0]
	cap := int32(d.cfg.D + 1)
	for i := 0; i < n; i++ {
		id := dag.NodeID(i)
		if g.Op(id).IsLeaf() {
			continue
		}
		dep := int32(1)
		for _, a := range g.Args(id) {
			if !g.Op(a).IsLeaf() && d.depth[a]+1 > dep {
				dep = d.depth[a] + 1
			}
		}
		if dep > cap {
			dep = cap
		}
		d.depth[i] = dep
		if dep <= int32(d.cfg.D) {
			d.push(id)
		}
	}
	d.arena = make([]dag.NodeID, 0, d.interior)
	// The cone list is only read by scheduleCones, which copies the
	// headers out, so the cuts share it. Cones average two to three nodes
	// on the suite; one regrowth at most.
	if d.cones == nil {
		d.cones = make([]Subgraph, 0, d.interior/3+1)
		d.dfsBlock = make([]int32, 0, d.interior/3+1)
	}
	d.cones, d.dfsBlock = d.cones[:0], d.dfsBlock[:0]
}

// bandLevels returns every node's band level: a sink or a node with other
// than one distinct consumer is level 0, and a node whose consumers are
// all one node sits one level above it, modulo D. Every path up from a
// level-0 node meets another within D nodes, so a level-0 node whose
// level-0 ancestors are mapped always has a schedulable cone.
func bandLevels(g *dag.Graph, D int) []uint8 {
	lv := make([]uint8, g.NumNodes())
	for i := len(lv) - 1; i >= 0; i-- {
		succ := g.Succs(dag.NodeID(i))
		if len(succ) == 0 {
			continue
		}
		one := true
		for _, s := range succ[1:] {
			if s != succ[0] {
				one = false
				break
			}
		}
		if one {
			lv[i] = uint8((int(lv[succ[0]]) + 1) % D)
		}
	}
	return lv
}

// candidate reports whether the cut's policy lets n seed or sink a cone.
func (d *decomposer) candidate(n dag.NodeID) bool {
	return d.band == nil || d.band[n] == 0
}

func (d *decomposer) push(n dag.NodeID) {
	if !d.inHeap[n] && !d.mapped[n] && d.candidate(n) {
		d.inHeap[n] = true
		d.heap.push(int32(n))
	}
}

// pop returns the DFS-earliest valid candidate, or -1.
func (d *decomposer) pop() dag.NodeID {
	for len(d.heap.items) > 0 {
		n := dag.NodeID(d.heap.pop())
		d.inHeap[n] = false
		if !d.mapped[n] && d.depth[n] <= int32(d.cfg.D) {
			return n
		}
	}
	return dag.InvalidNode
}

// cone gathers all unmapped interior ancestors of sink (including sink).
// Binary fan-in and depth ≤ D bound the cone at 2^D − 1 distinct nodes.
func (d *decomposer) cone(sink dag.NodeID, out []dag.NodeID) []dag.NodeID {
	d.visitStamp++
	stack := append(d.stack[:0], sink)
	d.visit[sink] = d.visitStamp
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		for _, a := range d.g.Args(n) {
			if d.g.Op(a).IsLeaf() || d.mapped[a] || d.visit[a] == d.visitStamp {
				continue
			}
			d.visit[a] = d.visitStamp
			stack = append(stack, a)
		}
	}
	d.stack = stack
	return out
}

func (d *decomposer) coneClaimed(cone []dag.NodeID) bool {
	for _, n := range cone {
		if d.claim[n] == d.claimStamp {
			return true
		}
	}
	return false
}

// commit marks the nodes of the DFS block's cones mapped and propagates
// the monotone depth decrease to downstream consumers, enqueueing nodes
// that become schedulable.
func (d *decomposer) commit(cones []Subgraph, work []dag.NodeID) []dag.NodeID {
	work = work[:0]
	for _, sg := range cones {
		for _, n := range sg.Nodes {
			d.mapped[n] = true
		}
	}
	for _, sg := range cones {
		for _, n := range sg.Nodes {
			work = append(work, d.g.Succs(n)...)
		}
	}
	cap := int32(d.cfg.D + 1)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if d.mapped[n] || d.g.Op(n).IsLeaf() {
			continue
		}
		dep := int32(1)
		for _, a := range d.g.Args(n) {
			if d.g.Op(a).IsLeaf() || d.mapped[a] {
				continue
			}
			da := d.depth[a] + 1
			if da > dep {
				dep = da
			}
		}
		if dep > cap {
			dep = cap
		}
		if dep < d.depth[n] {
			d.depth[n] = dep
			work = append(work, d.g.Succs(n)...)
		}
		if d.depth[n] <= int32(d.cfg.D) {
			d.push(n)
		}
	}
	return work
}

// decompose runs step 1 and returns the block list in schedule order. At
// D ≥ 2 it cuts the DAG both ways and keeps the cut whose block order
// issues its last exec sooner, the greedy cut on a tie; at D = 1 every
// node is band level 0 and the two cuts are one.
func decompose(g *dag.Graph, cfg arch.Config, keys []int64) ([]*Block, error) {
	d := newDecomposer(g, cfg, keys)
	if forcedCut != cutAuto {
		blocks, _, err := d.cut(forcedCut)
		return blocks, err
	}
	greedy, span, err := d.cut(cutGreedy)
	if err != nil || cfg.D < 2 {
		return greedy, err
	}
	band, bandSpan, err := d.cut(cutBand)
	if err != nil {
		return nil, err
	}
	if bandSpan < span {
		return band, nil
	}
	return greedy, nil
}

// cut runs steps 1a and 1b under policy and returns the executed blocks
// with the issue span of their order (scheduleCones).
func (d *decomposer) cut(policy cutPolicy) ([]*Block, int32, error) {
	d.reset(policy)
	g, cfg := d.g, d.cfg
	slots := newSlotPool(cfg)
	coneBuf := make([]dag.NodeID, 0, 1<<uint(cfg.D))
	var rejected, others, work []dag.NodeID
	for nblocks := int32(0); len(d.arena) < d.interior; {
		seed := d.bestSeed(&others)
		if seed == dag.InvalidNode {
			// Safety resweep: the heap can transiently miss candidates
			// only through a bookkeeping bug; rebuild rather than hang.
			resweep := false
			for i := 0; i < g.NumNodes(); i++ {
				id := dag.NodeID(i)
				if !g.Op(id).IsLeaf() && !d.mapped[id] && d.depth[id] <= int32(cfg.D) && d.candidate(id) {
					d.push(id)
					resweep = true
				}
			}
			if !resweep {
				return nil, 0, fmt.Errorf("compiler: %d nodes unschedulable (graph depth bookkeeping broken)", d.interior-len(d.arena))
			}
			continue
		}
		d.claimStamp++
		first := len(d.cones)
		slots.reset(cfg)
		// Seed subgraph.
		coneBuf = d.cone(seed, coneBuf[:0])
		slots.alloc(int(d.depth[seed]))
		d.addCone(seed, coneBuf, nblocks)
		// Fill remaining slots with DFS-adjacent cones.
		rejected = rejected[:0]
		for slots.maxDepth() >= 1 && len(rejected) < fillLookahead {
			n := d.pop()
			if n == dag.InvalidNode {
				break
			}
			dep := int(d.depth[n])
			if dep > slots.maxDepth() {
				rejected = append(rejected, n)
				continue
			}
			coneBuf = d.cone(n, coneBuf[:0])
			if d.coneClaimed(coneBuf) {
				rejected = append(rejected, n)
				continue
			}
			if _, ok := slots.alloc(dep); !ok {
				rejected = append(rejected, n)
				continue
			}
			d.addCone(n, coneBuf, nblocks)
		}
		work = d.commit(d.cones[first:], work)
		for _, n := range rejected {
			d.push(n)
		}
		nblocks++
	}
	blocks, span := scheduleCones(g, cfg, d.keys, d.cones, d.dfsBlock)
	return blocks, span, nil
}

// bestSeed pops up to seedLookahead candidates and keeps the deepest cone
// (ties broken toward the DFS-earliest, which is the pop order). others is
// the caller's scratch for the candidates passed over.
func (d *decomposer) bestSeed(others *[]dag.NodeID) dag.NodeID {
	best := dag.InvalidNode
	var bestDepth int32 = -1
	*others = (*others)[:0]
	for i := 0; i < seedLookahead; i++ {
		n := d.pop()
		if n == dag.InvalidNode {
			break
		}
		if d.depth[n] > bestDepth {
			if best != dag.InvalidNode {
				*others = append(*others, best)
			}
			best, bestDepth = n, d.depth[n]
			if bestDepth == int32(d.cfg.D) {
				break // cannot do better
			}
		} else {
			*others = append(*others, n)
		}
	}
	for _, n := range *others {
		d.push(n)
	}
	return best
}

// addCone records the cone of sink, cut for DFS block blk. Its slot is
// assigned when scheduleCones places it in an executed block.
func (d *decomposer) addCone(sink dag.NodeID, cone []dag.NodeID, blk int32) {
	start := len(d.arena)
	d.arena = append(d.arena, cone...)
	nodes := d.arena[start:len(d.arena):len(d.arena)]
	for _, n := range nodes {
		d.claim[n] = d.claimStamp
	}
	d.cones = append(d.cones, Subgraph{Sink: sink, Nodes: nodes, Depth: int(d.depth[sink])})
	d.dfsBlock = append(d.dfsBlock, blk)
}
