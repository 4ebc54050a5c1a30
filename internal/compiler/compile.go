package compiler

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// Compile lowers a DAG to a DPU-v2 program for the given configuration,
// running the four steps of §IV. Every graph is binarized first, into a
// graph of its own (the caller's is never aliased); the returned Compiled
// carries the remapping. It is Plan followed by Emit(cfg.R).
func Compile(g *dag.Graph, cfg arch.Config, opts Options) (*Compiled, error) {
	p, err := Plan(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	return p.Emit(cfg.R)
}

// Planned is a graph taken through steps 1–3 for one datapath (D, B,
// topology) and options: the cut, expansion, bank allocation, draft and
// its reordering — everything compilation decides before the register
// file's size R enters, which only step 4 reads. Emit turns a plan into a
// program for a given R without modifying it, so a design-space sweep
// plans once per datapath and emits once per R.
type Planned struct {
	cfg     arch.Config // normalized, R zero
	graph   *dag.Graph  // binarized
	remap   []dag.NodeID
	vals    []valInfo  // home bank and memory word of every value
	rows    int        // memory rows the init/output region fills
	sched   []*draftOp // step 3's order; nil entries are nop slots
	outWord map[dag.NodeID]int
	stats   Stats // what steps 1–3 counted
	elapsed time.Duration
}

// Plan runs steps 1–3 of Compile for g under cfg and opts. cfg.R is not
// read: Emit supplies and checks it.
func Plan(g *dag.Graph, cfg arch.Config, opts Options) (*Planned, error) {
	start := time.Now()
	cfg = cfg.Normalize()
	// Check everything but R with a legal stand-in, then zero it so that
	// nothing before step 4 can depend on it.
	cfg.R = 2
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.R = 0
	if cfg.Output == arch.OutOneToOne {
		return nil, fmt.Errorf("compiler: topology %s has no input crossbar and is not compilable (§III-C rejects it)", cfg.Output)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.PartitionSize < 0 || opts.PartitionSize > math.MaxInt32 {
		return nil, fmt.Errorf("compiler: partition size %d outside [0,%d]", opts.PartitionSize, math.MaxInt32)
	}

	bg, remap := dag.Binarize(g)
	p := &Planned{cfg: cfg, graph: bg, remap: remap}
	keys := partitionKeys(bg, dag.DFSOrder(bg), opts.PartitionSize)
	blocks, err := decompose(bg, cfg, keys)
	if err != nil {
		return nil, err
	}
	p.stats.Blocks = len(blocks)

	exp := newExpansion(cfg, bg.NumNodes())
	for _, b := range blocks {
		if err := exp.expand(bg, b); err != nil {
			return nil, err
		}
	}

	ba, err := allocateBanks(bg, cfg, blocks, opts)
	if err != nil {
		return nil, err
	}

	ds := newDraftState(bg, cfg, ba, opts.Seed, &p.stats)
	if p.outWord, err = ds.buildDraft(blocks); err != nil {
		return nil, err
	}
	p.sched = reorder(ds.ops, len(ds.vals), cfg.D, cmp.Or(forcedWindow, reorderWindow))
	p.vals, p.rows = ds.vals, ds.rows

	for i := 0; i < bg.NumNodes(); i++ {
		if !bg.Op(dag.NodeID(i)).IsLeaf() {
			p.stats.Nodes++
		}
	}
	if p.stats.Execs > 0 {
		p.stats.MeanUtil /= float64(p.stats.Execs)
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// Emit runs step 4 — register allocation, spilling and address
// assignment — for r registers per bank, and builds the program. Spilling
// gives values memory words in a spill region above the plan's rows, so
// Emit works on its own copy of the plan's value table and its own spill
// region. Each result owns its Prog, InputWord, ConstWord, OutputWord
// and Stats; Graph and Remap are the plan's, shared by every program it
// emits, and must not be modified.
func (p *Planned) Emit(r int) (*Compiled, error) {
	start := time.Now()
	cfg := p.cfg
	cfg.R = r
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stats := p.stats
	ra := newRegalloc(cfg, slices.Clone(p.vals), p.rows, p.sched, &stats)
	instrs, err := ra.run(p.sched)
	if err != nil {
		return nil, err
	}

	prog := arch.NewProgram(cfg)
	for i, in := range instrs {
		if err := prog.Append(in); err != nil {
			return nil, fmt.Errorf("compiler: emitted invalid instruction %d: %w", i, err)
		}
	}

	// Data-memory image: every touched row, including the spill region
	// (zero-initialized), with constant leaves filled in.
	bg, vals := p.graph, ra.vals
	words := (p.rows + len(ra.spillRows)) * cfg.B
	if words > cfg.DataMemWords {
		return nil, fmt.Errorf("compiler: memory image needs %d words, data memory holds %d", words, cfg.DataMemWords)
	}
	var constWord []int
	for i := 0; i < bg.NumNodes(); i++ {
		if bg.Op(dag.NodeID(i)) == dag.OpConst {
			constWord = append(constWord, int(vals[i].word))
		}
	}
	prog.InitMem = InitImage(bg, constWord, words)

	// Input words, in graph-input order; -1 for inputs nothing consumes.
	var inputWord []int
	for _, id := range bg.Inputs() {
		if w := vals[id].word; w >= 0 {
			inputWord = append(inputWord, int(w))
		} else {
			inputWord = append(inputWord, -1)
		}
	}

	stats.Instructions = len(prog.Instrs)
	stats.Cycles = len(prog.Instrs) + cfg.D + 1
	stats.CompileSeconds = (p.elapsed + time.Since(start)).Seconds()

	return &Compiled{
		Prog:       prog,
		Graph:      bg,
		Remap:      p.remap,
		InputWord:  inputWord,
		ConstWord:  constWord,
		OutputWord: maps.Clone(p.outWord),
		Stats:      stats,
		Revision:   Revision,
	}, nil
}

// InitImage returns the initial data-memory image of a program whose
// constants sit at constWord (as Compiled.ConstWord): words words, all
// zero except that word constWord[i] holds the Val of g's i-th OpConst
// node (in node-id order) wherever constWord[i] is not -1.
func InitImage(g *dag.Graph, constWord []int, words int) []float64 {
	img := make([]float64, words)
	k := 0
	for i := 0; i < g.NumNodes(); i++ {
		if n := g.Node(dag.NodeID(i)); n.Op == dag.OpConst {
			if w := constWord[k]; w >= 0 {
				img[w] = n.Val
			}
			k++
		}
	}
	return img
}
