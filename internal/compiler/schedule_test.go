package compiler

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/sptrsv"
	"dpuv2/internal/suite"
)

// execChain returns the number of blocks on the longest chain of dependent
// blocks: block j depends on block i when a cone of j reads a node mapped
// in i. Every link of the chain costs the full D+1 pipeline latency, so
// chain·(D+1) is a floor on the program's cycle count.
func execChain(g *dag.Graph, blocks []*Block) int {
	blockOf := make([]int32, g.NumNodes())
	for i := range blockOf {
		blockOf[i] = -1
	}
	for bi, b := range blocks {
		for _, sg := range b.Subgraphs {
			for _, n := range sg.Nodes {
				blockOf[n] = int32(bi)
			}
		}
	}
	chain := make([]int, len(blocks))
	longest := 0
	for bi, b := range blocks {
		chain[bi] = 1
		for _, sg := range b.Subgraphs {
			for _, n := range sg.Nodes {
				for _, a := range g.Args(n) {
					if p := blockOf[a]; p >= 0 && int(p) != bi && chain[p]+1 > chain[bi] {
						chain[bi] = chain[p] + 1
					}
				}
			}
		}
		if chain[bi] > longest {
			longest = chain[bi]
		}
	}
	return longest
}

func binarized(g *dag.Graph) *dag.Graph {
	if g.IsBinary() {
		return g
	}
	bg, _ := dag.Binarize(g)
	return bg
}

// TestExecChainBroken is the point of step 1b: executed in DFS-cut order
// the blocks of every graph form one serial chain (execChain == len(blocks),
// which is what this test saw before coneSched.schedule existed), so every exec
// waited D+1 cycles for the one before it. The nop bounds are the DFS-order
// compiler's counts on the same graphs.
func TestExecChainBroken(t *testing.T) {
	cfg := arch.MinEDP()
	tretail, err := suite.Build("tretail", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	msnbc, err := suite.Build("msnbc", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	circuit := pc.Generate(pc.Config{Vars: 8, TargetNodes: 480, TargetDepth: 12,
		SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: 1001})
	for _, tc := range []struct {
		name    string
		g       *dag.Graph
		dfsNops int
	}{
		{"tretail@0.25", tretail, 132},
		{"msnbc@0.1", msnbc, 189},
		{"circuit-480", circuit, 39},
	} {
		bg := binarized(tc.g)
		blocks := decomposeFor(t, bg, cfg)
		if chain := execChain(bg, blocks); chain >= len(blocks) {
			t.Errorf("%s: dependent-block chain %d spans all %d blocks", tc.name, chain, len(blocks))
		}
		c, err := Compile(tc.g, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats.Nops >= tc.dfsNops {
			t.Errorf("%s: %d nops, DFS-order blocks needed %d", tc.name, c.Stats.Nops, tc.dfsNops)
		}
	}
}

// TestSchedulePressure guards what coneWindow exists for: breaking the
// chain must not be paid for in register pressure. At scale 1.0 the
// schedule has to beat the DFS-order compiler (the bounds) on cycles and
// on spills; the unwindowed scheduler loses both (msnbc: 19822 / 4727).
func TestSchedulePressure(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two 40k-node graphs")
	}
	for _, tc := range []struct {
		name           string
		cycles, spills int
	}{
		{"msnbc", 16856, 2908},
		{"bnetflix", 14137, 1116},
	} {
		g, err := suite.Build(tc.name, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(g, arch.MinEDP(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats.Cycles > tc.cycles || c.Stats.SpillStores > tc.spills {
			t.Errorf("%s: %d cycles, %d spill stores; DFS order took %d and %d",
				tc.name, c.Stats.Cycles, c.Stats.SpillStores, tc.cycles, tc.spills)
		}
	}
}

// BenchmarkCompileMsnbc is the compile-cost yardstick of this package:
// msnbc at scale 0.1 (the largest PC of the `toolchain` benchmark
// workload) at the default design point. Run with -benchmem.
func BenchmarkCompileMsnbc(b *testing.B) {
	g, err := suite.Build("msnbc", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(g, arch.MinEDP(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileSteadyStateAllocs: once its pools are warm, a compile of
// msnbc@0.1 (BenchmarkCompileMsnbc's) allocates at most 3.0 MB in at
// most 11,000 allocations, below the 3.61 MB and 16.6k of the compiler
// before step 4's and the plan's buffers were reused. Under the race
// detector sync.Pool drops puts at random, so the test skips itself.
func TestCompileSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	g, err := suite.Build("msnbc", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		if _, err := Compile(g, arch.MinEDP(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, compile)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured ones.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if bytes > 3.0e6 || allocs > 11000 {
		t.Errorf("a steady-state compile allocates %.0f bytes in %.0f allocations, want ≤ 3.0 MB and ≤ 11,000", bytes, allocs)
	}
	t.Logf("%.0f bytes, %.0f allocations per compile", bytes, allocs)
}

// TestBankAssignmentGolden pins bankAlloc.allocate's output: the allocator's
// bookkeeping may change, its decisions — including the order it draws from
// the rng — may not. The hashes were taken with the lazy-stack buckets the
// allocator had before its intrusive lists, on the blocks step 1b emits for
// the greedy cut, which is what the allocator is pinned on whichever cut
// step 1 chooses.
func TestBankAssignmentGolden(t *testing.T) {
	cfg := arch.MinEDP()
	for _, tc := range []struct {
		name      string
		fallbacks int
		hash      uint64
	}{
		{"tretail", 1, 0x7dea744e590bd2b9},
		{"msnbc", 66, 0x5856daf23cf778b9},
	} {
		g, err := suite.Build(tc.name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		bg := binarized(g)
		blocks := decomposeWith(t, bg, cfg, Options{}, []cutPolicy{cutGreedy})
		exp := new(expansion)
		exp.reset(cfg, bg.NumNodes())
		for _, b := range blocks {
			if err := exp.expand(bg, b); err != nil {
				t.Fatal(err)
			}
		}
		ba := new(bankAlloc)
		if err := ba.allocate(bg, cfg, blocks, Options{}, 5); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, b := range ba.bank {
			h.Write([]byte{byte(b)})
		}
		if h.Sum64() != tc.hash || ba.fallbacks != tc.fallbacks {
			t.Errorf("%s: bank assignment moved: hash %#x fallbacks %d, want %#x %d", tc.name, h.Sum64(), ba.fallbacks, tc.hash, tc.fallbacks)
		}
	}
}

// BenchmarkAblationWindow quantifies the value of the step-3 reorder
// window (DESIGN.md "Ablation windows"): window 1 degenerates to in-order
// issue, 300 is reorderWindow, the paper's setting.
func BenchmarkAblationWindow(b *testing.B) {
	g := pc.Build(pc.Suite()[0], 0.25)
	for _, w := range []int{1, 30, reorderWindow} {
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				c, err := CompileWindow(g, arch.MinEDP(), Options{}, w)
				if err != nil {
					b.Fatal(err)
				}
				cycles = c.Stats.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkReorder times step 3 alone. Outside the timer it runs steps 1
// to 2c of every Table I graph at 0.1 at the min-EDP point, drafting each
// under both leaf layouts as Plan does; an iteration reorders every draft
// under both windows (DESIGN.md "Step 3: the reorder window and the write
// port").
func BenchmarkReorder(b *testing.B) {
	graphs := []*dag.Graph{}
	for _, s := range pc.Suite() {
		graphs = append(graphs, pc.Build(s, 0.1))
	}
	for _, s := range sptrsv.Suite() {
		g, _ := sptrsv.Build(s, 0.1)
		graphs = append(graphs, g)
	}
	type drafted struct {
		ops  []*draftOp
		vals []valInfo
	}
	var drafts []drafted
	cfg, s := arch.MinEDP(), fullSearch()
	for _, g := range graphs {
		bg, _ := dag.Binarize(g)
		sc := new(planScratch)
		blocks, base, err := sc.blocks(bg, cfg, Options{}, s)
		if err != nil {
			b.Fatal(err)
		}
		for _, layout := range s.layouts {
			d, ops, err := sc.draft(bg, cfg, layout, blocks, s.seed, base)
			if err != nil {
				b.Fatal(err)
			}
			drafts = append(drafts, drafted{ops, d.vals})
		}
	}
	sc := new(planScratch)
	for b.Loop() {
		for _, d := range drafts {
			for _, w := range s.windows {
				sc.reorder(d.ops, d.vals, cfg, w)
			}
		}
	}
}
