package compiler

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
	"dpuv2/internal/regfile"
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
// draft per leaf layout and reorder window — everything compilation
// decides before the register file's size R enters, which only step 4
// reads. Emit turns a plan into a program for a given R without
// modifying it, so a design-space sweep plans once per datapath and
// emits once per R.
type Planned struct {
	cfg   arch.Config // normalized, R zero
	graph *dag.Graph  // binarized
	remap []dag.NodeID
	// drafts are the candidates, window by window and within a window
	// layout by layout: first-fit under reorderWindow first, always; a
	// row draft where its image fits data memory and its schedule is
	// shorter than first-fit's under the same window; a later window's
	// draft where its schedule differs from its layout's under the first.
	drafts  []*draft
	elapsed time.Duration
}

// draft is steps 2c–3 under one leaf layout and reorder window. The
// drafts of one layout share everything but sched.
type draft struct {
	vals    []valInfo  // home bank and memory word of every value
	rows    int        // memory rows the init/output region fills
	sched   []*draftOp // step 3's order; nil entries are nop slots
	outWord map[dag.NodeID]int
	stats   Stats // what steps 1–3 counted
}

// search is the space of mapping decisions Plan tries on every graph:
// step 1's cuts (the shortest issue span wins, the first on a tie), step
// 2c's leaf layouts and step 3's windows (the first of each is always
// kept), with the seed of step 2's bank allocator and step 2c's copy
// repair.
type search struct {
	cuts    []cutPolicy
	layouts []leafLayout
	windows []int
	seed    int64
}

// fullSearch is Plan's space: both cuts, greedy first; both layouts,
// first-fit first; reorderWindow, then shortWindow; and seed 0.
func fullSearch() search {
	return search{[]cutPolicy{cutGreedy, cutBand}, []leafLayout{layoutFirstFit, layoutRows}, []int{reorderWindow, shortWindow}, 0}
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
	sc := planPool.Get().(*planScratch)
	defer planPool.Put(sc)
	blocks, base, err := sc.blocks(bg, cfg, opts, s)
	if err != nil {
		return nil, err
	}

	// Step 2c once per layout, step 3 once per window: drafts[l][w]. The
	// row layout needs one load per block but leaves the image sparse and
	// can lengthen the schedule (loads were filling latency slots
	// anyway), so it is a candidate only where it fits and its schedule
	// is strictly shorter than first-fit's under the same window. A
	// shorter window hoists loads less far ahead of their execs; where it
	// leaves a layout's schedule as it was, it is no candidate. Emit
	// decides between the candidates by the cycles step 4 emits.
	drafts := make([][]*draft, len(s.layouts))
	for l, layout := range s.layouts {
		d, ops, err := sc.draft(bg, cfg, layout, blocks, s.seed, base)
		if err != nil {
			return nil, err
		}
		for _, window := range s.windows {
			dw := *d
			dw.sched = sc.reorder(ops, d.vals, cfg, window)
			drafts[l] = append(drafts[l], &dw)
		}
	}
	for w := range s.windows {
		for l := range s.layouts {
			d := drafts[l][w]
			if w > 0 && slices.Equal(d.sched, drafts[l][0].sched) {
				continue
			}
			if l > 0 && (d.rows*cfg.B > cfg.DataMemWords || len(d.sched) >= len(drafts[0][w].sched)) {
				continue
			}
			p.drafts = append(p.drafts, d)
		}
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// planScratch is the working storage of plan that no plan keeps: the
// partition keys, step 1's decomposer (and step 1b's scheduler in it),
// the expansion, the bank allocator, the draft state and step 3's
// arrays and write-port ring. plan takes one from planPool and puts it
// back, so the next plan reuses them.
type planScratch struct {
	keys  []int64
	dec   decomposer
	exp   expansion
	banks bankAlloc
	ds    draftState
	prod  []int32
	rops  []reorderOp
	ports regfile.Ports
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// blocks runs steps 1 to 2b over the binarized graph bg: it cuts bg into
// blocks, expands them and allocates their banks, and returns them with
// the counts every draft of them starts from.
func (sc *planScratch) blocks(bg *dag.Graph, cfg arch.Config, opts Options, s search) ([]*Block, Stats, error) {
	sc.keys = partitionKeys(sc.keys, bg, dag.DFSOrder(bg), opts.PartitionSize)
	blocks, err := sc.dec.decompose(bg, cfg, sc.keys, s.cuts)
	if err != nil {
		return nil, Stats{}, err
	}
	base := Stats{Blocks: len(blocks)}
	for i := 0; i < bg.NumNodes(); i++ {
		if !bg.Op(dag.NodeID(i)).IsLeaf() {
			base.Nodes++
		}
	}
	sc.exp.reset(cfg, bg.NumNodes())
	for _, b := range blocks {
		if err := sc.exp.expand(bg, b); err != nil {
			return nil, Stats{}, err
		}
	}
	return blocks, base, sc.banks.allocate(bg, cfg, blocks, opts, s.seed)
}

// draft runs step 2c, the draft laying leaves out by layout, over the
// blocks, and returns it unordered with its op list for step 3.
func (sc *planScratch) draft(bg *dag.Graph, cfg arch.Config, layout leafLayout, blocks []*Block, seed int64, base Stats) (*draft, []*draftOp, error) {
	d := &draft{stats: base}
	ds := &sc.ds
	ds.reset(bg, cfg, layout, &sc.banks, seed, &d.stats, len(blocks))
	var err error
	if d.outWord, err = ds.buildDraft(blocks); err != nil {
		return nil, nil, err
	}
	d.vals, d.rows = ds.vals, ds.rows
	if d.stats.Execs > 0 {
		d.stats.MeanUtil /= float64(d.stats.Execs)
	}
	return d, ds.ops, nil
}

// Emit runs step 4 — register allocation, spilling and address
// assignment — for r registers per bank on every draft of the plan, and
// builds the program of the one that emits the fewest instructions (the
// earliest draft on a tie; the first draft's error when none emits).
// The drafts are emitted in order, and each stops once it is as long as
// the shortest program before it.
// Spilling gives values memory words in a spill region above the draft's
// rows, so each allocation works on its own copy of the draft's value
// table and its own spill region. Step 4's arrays, that copy and the
// instructions of a losing draft are reused by the next draft and,
// through emitPool, by the next Emit; the winner's instructions become
// the program. Each result owns its Prog, InputWord,
// ConstWord, OutputWord and Stats; Graph and Remap are the plan's,
// shared by every program it emits, and must not be modified.
func (p *Planned) Emit(r int) (*Compiled, error) {
	start := time.Now()
	cfg := p.cfg
	cfg.R = r
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := emitPool.Get().(*emitScratch)
	defer emitPool.Put(sc)
	var (
		best      *draft
		bestBuf   arch.Builder
		stats     Stats
		spillRows int
		firstErr  error
	)
	for _, d := range p.drafts {
		limit := math.MaxInt
		if best != nil {
			limit = bestBuf.Len()
		}
		sc.vals = append(sc.vals[:0], d.vals...)
		ra := &sc.ra
		ra.reset(cfg, sc.vals, d.rows, d.sched, d.stats, &sc.buf)
		err := ra.run(d.sched, limit)
		if err == nil && (d.rows+len(ra.spillRows))*cfg.B > cfg.DataMemWords {
			err = fmt.Errorf("compiler: memory image needs %d words, data memory holds %d", (d.rows+len(ra.spillRows))*cfg.B, cfg.DataMemWords)
		}
		if err != nil {
			if d == p.drafts[0] {
				firstErr = err
			}
			continue
		}
		best, stats, spillRows = d, ra.stats, len(ra.spillRows)
		bestBuf, sc.buf = sc.buf, bestBuf
	}
	if best == nil {
		return nil, firstErr
	}

	prog, err := bestBuf.Program(cfg)
	if err != nil {
		return nil, fmt.Errorf("compiler: emitted an invalid program: %w", err)
	}

	// Data-memory image: every touched row, including the spill region
	// (zero-initialized), with constant leaves filled in. Step 4 gives
	// memory words only to values that had none, never to a leaf, so the
	// draft's value table has every leaf's word.
	bg, vals := p.graph, best.vals
	words := (best.rows + spillRows) * cfg.B
	var constWord []int
	for i := 0; i < bg.NumNodes(); i++ {
		if bg.Op(dag.NodeID(i)) == dag.OpConst {
			constWord = append(constWord, int(vals[i].word))
		}
	}
	prog.InitMem = InitImage(bg, constWord, words)

	// Input words, in graph-input order; -1 for inputs nothing consumes.
	inputWord := make([]int, 0, len(bg.Inputs()))
	for _, id := range bg.Inputs() {
		if w := vals[id].word; w >= 0 {
			inputWord = append(inputWord, int(w))
		} else {
			inputWord = append(inputWord, -1)
		}
	}

	stats.Instructions = len(prog.Instrs)
	stats.Cycles = len(prog.Instrs) + cfg.Drain()
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
