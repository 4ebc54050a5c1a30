package compiler

import (
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
// topology) and options: the cut, expansion, bank allocation, and a
// draft and its reordering per leaf layout — everything compilation
// decides before the register file's size R enters, which only step 4
// reads. Emit turns a plan into a program for a given R without
// modifying it, so a design-space sweep plans once per datapath and
// emits once per R.
type Planned struct {
	cfg   arch.Config // normalized, R zero
	graph *dag.Graph  // binarized
	remap []dag.NodeID
	// drafts are the candidate layouts: first-fit, then the row layout
	// when its image fits data memory and its schedule is shorter.
	drafts  []*draft
	elapsed time.Duration
}

// draft is steps 2c–3 under one leaf layout.
type draft struct {
	vals    []valInfo  // home bank and memory word of every value
	rows    int        // memory rows the init/output region fills
	sched   []*draftOp // step 3's order; nil entries are nop slots
	outWord map[dag.NodeID]int
	stats   Stats // what steps 1–3 counted
}

// search is the space of mapping decisions Plan tries on every graph:
// step 1's cuts (the shortest issue span wins, the first on a tie), step
// 2c's leaf layouts (the first is always kept) and step 3's window, with
// the seed of step 2's bank allocator and step 2c's copy repair.
type search struct {
	cuts    []cutPolicy
	layouts []leafLayout
	window  int
	seed    int64
}

// fullSearch is Plan's space: both cuts, greedy first; both layouts,
// first-fit first; reorderWindow; and seed 0.
func fullSearch() search {
	return search{[]cutPolicy{cutGreedy, cutBand}, []leafLayout{layoutFirstFit, layoutRows}, reorderWindow, 0}
}

// Plan runs steps 1–3 of Compile for g under cfg and opts. cfg.R is not
// read: Emit supplies and checks it.
func Plan(g *dag.Graph, cfg arch.Config, opts Options) (*Planned, error) {
	return plan(g, cfg, opts, fullSearch())
}

// plan is Plan over the search space s.
func plan(g *dag.Graph, cfg arch.Config, opts Options, s search) (*Planned, error) {
	start := time.Now()
	cfg = cfg.Normalize()
	// Check everything but R with a legal stand-in, then zero it so that
	// nothing before step 4 can depend on it.
	cfg.R = 2
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.R = 0
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.PartitionSize < 0 || opts.PartitionSize > math.MaxInt32 {
		return nil, fmt.Errorf("compiler: partition size %d outside [0,%d]", opts.PartitionSize, math.MaxInt32)
	}

	bg, remap := dag.Binarize(g)
	p := &Planned{cfg: cfg, graph: bg, remap: remap}
	keys := partitionKeys(bg, dag.DFSOrder(bg), opts.PartitionSize)
	blocks, err := decompose(bg, cfg, keys, s.cuts)
	if err != nil {
		return nil, err
	}
	base := Stats{Blocks: len(blocks)}
	for i := 0; i < bg.NumNodes(); i++ {
		if !bg.Op(dag.NodeID(i)).IsLeaf() {
			base.Nodes++
		}
	}

	exp := newExpansion(cfg, bg.NumNodes())
	for _, b := range blocks {
		if err := exp.expand(bg, b); err != nil {
			return nil, err
		}
	}

	ba, err := allocateBanks(bg, cfg, blocks, opts, s.seed)
	if err != nil {
		return nil, err
	}

	// Step 2c–3 per layout. The row layout needs one load per block but
	// leaves the image sparse and can lengthen the schedule (loads were
	// filling latency slots anyway), so it is a candidate only where it
	// fits and its schedule is strictly shorter; Emit decides between the
	// candidates by the cycles step 4 emits.
	for _, layout := range s.layouts {
		d, err := newDraft(bg, cfg, layout, blocks, ba, s.seed, s.window, base)
		if err != nil {
			return nil, err
		}
		if len(p.drafts) > 0 && (d.rows*cfg.B > cfg.DataMemWords || len(d.sched) >= len(p.drafts[0].sched)) {
			continue
		}
		p.drafts = append(p.drafts, d)
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// newDraft runs step 2c (the draft, laying leaves out by layout) and
// step 3 (reordering within window) over the blocks.
func newDraft(bg *dag.Graph, cfg arch.Config, layout leafLayout, blocks []*Block, ba *bankAlloc, seed int64, window int, base Stats) (*draft, error) {
	d := &draft{stats: base}
	ds := newDraftState(bg, cfg, layout, ba, seed, &d.stats)
	var err error
	if d.outWord, err = ds.buildDraft(blocks); err != nil {
		return nil, err
	}
	d.sched = reorder(ds.ops, len(ds.vals), cfg.D, window)
	d.vals, d.rows = ds.vals, ds.rows
	if d.stats.Execs > 0 {
		d.stats.MeanUtil /= float64(d.stats.Execs)
	}
	return d, nil
}

// Emit runs step 4 — register allocation, spilling and address
// assignment — for r registers per bank on every draft of the plan, and
// builds the program of the one that emits the fewest instructions (the
// first-fit draft on a tie; the first draft's error when none emits).
// The drafts are emitted in order, and each stops once it is as long as
// the shortest program before it.
// Spilling gives values memory words in a spill region above the draft's
// rows, so each allocation works on its own copy of the draft's value
// table and its own spill region. Each result owns its Prog, InputWord,
// ConstWord, OutputWord and Stats; Graph and Remap are the plan's,
// shared by every program it emits, and must not be modified.
func (p *Planned) Emit(r int) (*Compiled, error) {
	start := time.Now()
	cfg := p.cfg
	cfg.R = r
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var (
		best     *draft
		bestRA   *regalloc
		instrs   []*arch.Instr
		stats    Stats
		firstErr error
	)
	for _, d := range p.drafts {
		st := d.stats
		limit := math.MaxInt
		if best != nil {
			limit = len(instrs)
		}
		ra := newRegalloc(cfg, slices.Clone(d.vals), d.rows, d.sched, &st)
		out, err := ra.run(d.sched, limit)
		if err == nil && (d.rows+len(ra.spillRows))*cfg.B > cfg.DataMemWords {
			err = fmt.Errorf("compiler: memory image needs %d words, data memory holds %d", (d.rows+len(ra.spillRows))*cfg.B, cfg.DataMemWords)
		}
		if err != nil {
			if d == p.drafts[0] {
				firstErr = err
			}
			continue
		}
		best, bestRA, instrs, stats = d, ra, out, st
	}
	if best == nil {
		return nil, firstErr
	}

	prog := arch.NewProgram(cfg)
	for i, in := range instrs {
		if err := prog.Append(in); err != nil {
			return nil, fmt.Errorf("compiler: emitted invalid instruction %d: %w", i, err)
		}
	}

	// Data-memory image: every touched row, including the spill region
	// (zero-initialized), with constant leaves filled in.
	bg, vals := p.graph, bestRA.vals
	words := (best.rows + len(bestRA.spillRows)) * cfg.B
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
		OutputWord: maps.Clone(best.outWord),
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
