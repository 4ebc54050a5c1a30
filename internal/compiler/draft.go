package compiler

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// Step 2c — draft schedule. The blocks are turned into an abstract
// instruction list: just-in-time vector loads for leaf values, pre-copies
// repairing input bank conflicts (constraint F violations), the exec
// itself, post-copies moving outputs home when the output interconnect or
// constraint G forced them elsewhere, and final stores making every DAG
// sink observable in data memory. Concrete register addresses do not
// exist yet — they are assigned by step 4 after reordering.

type draftKind uint8

const (
	dLoad draftKind = iota
	dCopy
	dExec
	dStore  // full-vector store (lane = bank)
	dStore4 // gathered store of ≤4 words
)

type draftMove struct {
	src ValID
	dst int   // destination bank (copy) or memory lane (store4)
	w   ValID // value produced by a copy move (InvalidVal for stores)
}

type draftOp struct {
	kind  draftKind
	block *Block
	row   int         // memory row for load/store/store4
	reads []ValID     // values read at issue
	wrs   []ValID     // values written (land one/D cycles later)
	moves []draftMove // copy/store4 lanes
	// exec-only placement results: the block inputs replaced by a
	// replica (src = input, w = the replica the exec reads), and the bank
	// each value of wrs is written to. wrs[i] is block.Outputs[i] itself
	// or, when that output was displaced, a temp a post-copy moves home.
	repairs []draftMove
	outBank []int8
}

// readOf returns the value an exec reads for block input v.
func (op *draftOp) readOf(v ValID) ValID {
	for _, m := range op.repairs {
		if m.src == v {
			return m.w
		}
	}
	return v
}

type valKind uint8

const (
	vLeaf valKind = iota
	vNode
	vTemp
)

type valInfo struct {
	kind valKind
	bank int8
	// word is the data-memory home: the init word for leaves, the
	// destination word for stored sinks, or the spill word once evicted.
	word int32
}

// leafLayout is how step 2c lays leaves out in data memory. Plan drafts
// both layouts and Emit keeps the program with fewer cycles.
type leafLayout uint8

const (
	layoutFirstFit leafLayout = iota // per-bank first-fit in first-use order
	layoutRows                       // each block's new leaves share a row
)

type draftState struct {
	g        *dag.Graph
	cfg      arch.Config
	layout   leafLayout
	rng      *rand.Rand
	vals     []valInfo
	ops      []*draftOp
	writable []uint64 // per PE id: the banks it can write

	// init-region memory layout: per-row lane occupancy, and per bank a
	// row below which its lane is taken, where every search starts.
	rowMask []uint64
	rowHint []int
	rowVals [][]ValID // leaf values placed per row (load grouping)
	rows    int
	pending []ValID // placeBlockRow's scratch: the block's leaves to place

	loaded   []bool  // leaf already covered by a draft load
	firstUse []int32 // leaf -> index of the first block consuming it
	rowSeen  []int32 // leaf row -> 1 + last block that emitted a load of it
	rowBuf   []int   // emitLoads' scratch: rows the block touches

	// matchOutputs' scratch, reused across blocks: the output index
	// holding each bank (-1 free), each output's bank, and a per-bank
	// visit stamp for the augmenting search.
	taken     []int32
	assign    []int
	seen      []int32
	seenStamp int32
	// Arenas backing every exec's reads/wrs and outBank, sized once.
	valArena  []ValID
	bankArena []int8

	stats *Stats
}

// reset readies ds to draft g's blocks under layout, with the banks ba
// allocated, counting into stats. The value table and op list are new,
// since the draft keeps them; every other array is reused.
func (ds *draftState) reset(g *dag.Graph, cfg arch.Config, layout leafLayout, ba *bankAlloc, seed int64, stats *Stats, blocks int) {
	nv := g.NumNodes()
	ds.g, ds.cfg, ds.layout, ds.stats = g, cfg, layout, stats
	if ds.rng == nil {
		ds.rng = rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	} else {
		ds.rng.Seed(seed ^ 0x9e3779b9)
	}
	// Copy repair adds temps past the nodes, and each block takes a load,
	// an exec and a copy or two.
	ds.vals = make([]valInfo, nv, nv+nv/4)
	ds.ops = make([]*draftOp, 0, 4*blocks)
	ds.writable = ba.writable
	ds.rowMask, ds.rows, ds.pending, ds.rowBuf = ds.rowMask[:0], 0, ds.pending[:0], ds.rowBuf[:0]
	ds.rowHint = resize(ds.rowHint, cfg.B)
	for r := range ds.rowVals {
		ds.rowVals[r] = ds.rowVals[r][:0]
	}
	ds.rowVals = ds.rowVals[:0]
	ds.loaded = resize(ds.loaded, nv)
	ds.taken, ds.seen, ds.seenStamp = resize(ds.taken, cfg.B), resize(ds.seen, cfg.B), 0
	ds.assign = ds.assign[:0]
	for i := 0; i < nv; i++ {
		k := vNode
		if g.Op(dag.NodeID(i)).IsLeaf() {
			k = vLeaf
		}
		ds.vals[i] = valInfo{kind: k, bank: ba.bank[i], word: -1}
	}
	ds.firstUse = resize(ds.firstUse, nv)
	for i := range ds.firstUse {
		ds.firstUse[i] = 1 << 30
	}
}

func (ds *draftState) newTemp(bank int) ValID {
	ds.vals = append(ds.vals, valInfo{kind: vTemp, bank: int8(bank), word: -1})
	return ValID(len(ds.vals) - 1)
}

// claim marks lanes of row r taken, growing the memory image as needed.
func (ds *draftState) claim(r int, lanes uint64) {
	for r >= len(ds.rowMask) {
		ds.rowMask = append(ds.rowMask, 0)
	}
	ds.rowMask[r] |= lanes
	for m := lanes; m != 0; m &= m - 1 {
		if b := bits.TrailingZeros64(m); ds.rowHint[b] == r {
			ds.rowHint[b] = r + 1
		}
	}
	ds.rows = max(ds.rows, r+1)
}

// freeRow returns the first row whose lanes are all free (a vector load
// or store moves lane i to or from bank i), searching from the highest
// of their banks' row hints; a row past the image is free.
func (ds *draftState) freeRow(lanes uint64) int {
	r := 0
	for m := lanes; m != 0; m &= m - 1 {
		r = max(r, ds.rowHint[bits.TrailingZeros64(m)])
	}
	for r < len(ds.rowMask) && ds.rowMask[r]&lanes != 0 {
		r++
	}
	return r
}

// firstFitWord claims the first free word in the bank's lane and
// returns it.
func (ds *draftState) firstFitWord(bank int) int32 {
	r := ds.freeRow(1 << uint(bank))
	ds.claim(r, 1<<uint(bank))
	return int32(r*ds.cfg.B + bank)
}

// placeAt gives leaf v the word of row r in its home bank's lane, which
// the caller has claimed; lane equals the home bank because vector loads
// deliver lane i to bank i.
func (ds *draftState) placeAt(v ValID, r int) {
	ds.vals[v].word = int32(r*ds.cfg.B + int(ds.vals[v].bank))
	for r >= len(ds.rowVals) {
		if n := len(ds.rowVals); n < cap(ds.rowVals) {
			ds.rowVals = ds.rowVals[:n+1] // a row an earlier draft emptied
		} else {
			ds.rowVals = append(ds.rowVals, nil)
		}
	}
	ds.rowVals[r] = append(ds.rowVals[r], v)
}

// placeLeafWord assigns a leaf value its init-memory word by first-fit.
func (ds *draftState) placeLeafWord(v ValID) {
	if ds.vals[v].word >= 0 {
		return
	}
	ds.placeAt(v, int(ds.firstFitWord(int(ds.vals[v].bank)))/ds.cfg.B)
}

// placeBlockRow lays the block's leaves that have no word yet out in
// the first row whose lanes for all their banks are free, so one load
// brings them in. Leaves sharing a bank (step 2 repairs those with
// copies) go to the next such row.
func (ds *draftState) placeBlockRow(b *Block) {
	pend := ds.pending[:0]
	for _, v := range b.Inputs {
		if ds.vals[v].kind == vLeaf && ds.vals[v].word < 0 {
			pend = append(pend, v)
		}
	}
	ds.pending = pend
	for len(pend) > 0 {
		var lanes uint64
		for _, v := range pend {
			lanes |= 1 << uint(ds.vals[v].bank)
		}
		r := ds.freeRow(lanes)
		ds.claim(r, lanes)
		rest, placed := pend[:0], uint64(0)
		for _, v := range pend {
			if bit := uint64(1) << uint(ds.vals[v].bank); placed&bit == 0 {
				placed |= bit
				ds.placeAt(v, r)
			} else {
				rest = append(rest, v)
			}
		}
		pend = rest
	}
}

// placeLeaves lays every leaf out in first-use order. Under first-fit
// each leaf takes the first free word of its bank's lane, so a block's
// new leaves spread over several rows whose other lanes hold leaves
// first used elsewhere in the schedule; under the row layout each
// block's new leaves share a row. Either way the lookahead filter in
// emitLoads decides which lanes ride along on each load, bounding both
// load count and register pressure.
func (ds *draftState) placeLeaves(blocks []*Block) {
	for bi, b := range blocks {
		for _, v := range b.Inputs {
			if ds.vals[v].kind != vLeaf {
				continue
			}
			if int32(bi) < ds.firstUse[v] {
				ds.firstUse[v] = int32(bi)
			}
			if ds.layout == layoutFirstFit {
				ds.placeLeafWord(v)
			}
		}
		if ds.layout == layoutRows {
			ds.placeBlockRow(b)
		}
	}
}

// loadLookahead is how many blocks ahead a vector load may prefetch:
// lanes of a touched row whose first use lies within this window ride
// along for free, amortizing the load without blowing up register
// pressure (leaves are laid out in first-use order, so row neighbours
// are temporally close).
const loadLookahead = 8

// emitLoads brings the block's leaf inputs into the register file, one
// masked vector load per touched memory row (fig. 5(b)).
func (ds *draftState) emitLoads(block *Block, bi int) {
	rows := ds.rowBuf[:0]
	for _, v := range block.Inputs {
		if ds.vals[v].kind != vLeaf || ds.loaded[v] {
			continue
		}
		row := int(ds.vals[v].word) / ds.cfg.B
		if ds.rowSeen[row] != int32(bi)+1 {
			ds.rowSeen[row] = int32(bi) + 1
			rows = append(rows, row)
		}
	}
	ds.rowBuf = rows
	for _, row := range rows {
		op := &draftOp{kind: dLoad, row: row}
		for _, v := range ds.rowVals[row] {
			if !ds.loaded[v] && ds.firstUse[v] <= int32(bi+loadLookahead) {
				ds.loaded[v] = true
				op.wrs = append(op.wrs, v)
			}
		}
		ds.ops = append(ds.ops, op)
		ds.stats.Loads++
	}
}

// repairInputs resolves constraint-F violations: when several distinct
// inputs share a home bank, all but one are copied into free banks first;
// the exec then reads the replicas, which the returned moves name.
func (ds *draftState) repairInputs(block *Block) []draftMove {
	var used uint64
	var moves []draftMove
	// First value per bank stays; later arrivals are repaired, in the
	// deterministic block-input order.
	for _, v := range block.Inputs {
		b := int(ds.vals[v].bank)
		if used&(1<<uint(b)) == 0 {
			used |= 1 << uint(b)
			continue
		}
		free := ^used & (uint64(1)<<uint(ds.cfg.B) - 1)
		if free == 0 {
			// Cannot happen: ≤B distinct inputs and a conflict implies
			// at least one unused bank.
			panic("compiler: no free bank for input repair")
		}
		dst := nthSetBit(free, ds.rng.Intn(bits.OnesCount64(free)))
		used |= 1 << uint(dst)
		tv := ds.newTemp(dst)
		moves = append(moves, draftMove{src: v, dst: dst, w: tv})
		ds.stats.InputConflicts++
	}
	ds.emitCopies(moves)
	return moves
}

// emitCopies batches moves into copy_4 instructions. Within one
// instruction source banks must be distinct (one read port per bank) and
// destination banks must be distinct (one write port per bank).
func (ds *draftState) emitCopies(moves []draftMove) {
	var cur *draftOp
	var srcMask, dstMask uint64
	flush := func() {
		if cur != nil {
			ds.ops = append(ds.ops, cur)
			ds.stats.Copies++
			cur, srcMask, dstMask = nil, 0, 0
		}
	}
	for _, m := range moves {
		sb := uint(ds.vals[m.src].bank)
		db := uint(m.dst)
		if cur != nil && (len(cur.moves) == arch.MaxMoves || srcMask&(1<<sb) != 0 || dstMask&(1<<db) != 0) {
			flush()
		}
		if cur == nil {
			cur = &draftOp{kind: dCopy}
		}
		cur.moves = append(cur.moves, m)
		cur.reads = append(cur.reads, m.src)
		cur.wrs = append(cur.wrs, m.w)
		srcMask |= 1 << sb
		dstMask |= 1 << db
		ds.stats.CopiedWords++
	}
	flush()
}

// matchOutputs assigns each block output a write bank within its PE's
// reach, preferring home banks and completing the assignment with
// augmenting paths (a perfect matching always exists for the supported
// topologies: the writable sets form a laminar family of dyadic
// intervals, so Hall's condition holds for distinct PEs). The result,
// indexed like block.Outputs, is scratch valid until the next call.
func (ds *draftState) matchOutputs(block *Block) ([]int, error) {
	for b := range ds.taken {
		ds.taken[b] = -1
	}
	// First pass: home banks.
	assign := ds.assign[:0]
	for i, v := range block.Outputs {
		a, home := -1, int(ds.vals[v].bank)
		if ds.taken[home] < 0 && ds.writableBy(block, i)&(1<<uint(home)) != 0 {
			ds.taken[home] = int32(i)
			a = home
		}
		assign = append(assign, a)
	}
	ds.assign = assign
	// Second pass: Kuhn augmenting for the rest.
	for i := range block.Outputs {
		if assign[i] >= 0 {
			continue
		}
		ds.seenStamp++
		if !ds.augment(block, int32(i)) {
			return nil, fmt.Errorf("compiler: cannot match %d outputs to banks (topology %s)",
				len(block.Outputs), ds.cfg.Output)
		}
	}
	return assign, nil
}

// writableBy returns the banks the PE driving block output i can write.
func (ds *draftState) writableBy(block *Block, i int) uint64 {
	return ds.writable[ds.cfg.PEID(block.OutPE[i])]
}

// augment finds output i a bank along an augmenting path of the current
// matching, visiting each bank at most once per search, in ascending order.
func (ds *draftState) augment(block *Block, i int32) bool {
	for m := ds.writableBy(block, int(i)); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if ds.seen[b] == ds.seenStamp {
			continue
		}
		ds.seen[b] = ds.seenStamp
		if h := ds.taken[b]; h < 0 || ds.augment(block, h) {
			ds.taken[b] = i
			ds.assign[i] = b
			return true
		}
	}
	return false
}

// carve returns an empty slice with capacity n cut from the arena. A full
// arena is replaced by one twice as large; what was cut before keeps the
// old array.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, 2*cap(a)))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a) : len(a)+n]
}

// emitExec appends the exec op plus post-copies that move displaced
// outputs to their home banks.
func (ds *draftState) emitExec(block *Block, repairs []draftMove) error {
	assign, err := ds.matchOutputs(block)
	if err != nil {
		return err
	}
	op := &draftOp{
		kind:    dExec,
		block:   block,
		repairs: repairs,
		reads:   carve(&ds.valArena, len(block.Inputs)),
		wrs:     carve(&ds.valArena, len(block.Outputs)),
		outBank: carve(&ds.bankArena, len(block.Outputs)),
	}
	// Block inputs are distinct and every replica is a fresh temp, so the
	// values read are distinct too.
	for _, v := range block.Inputs {
		op.reads = append(op.reads, op.readOf(v))
	}
	var post []draftMove
	for i, v := range block.Outputs {
		b := assign[i]
		op.outBank = append(op.outBank, int8(b))
		if b == int(ds.vals[v].bank) {
			op.wrs = append(op.wrs, v)
			continue
		}
		// Displaced: exec writes a temp, a post-copy moves it home.
		tv := ds.newTemp(b)
		op.wrs = append(op.wrs, tv)
		post = append(post, draftMove{src: tv, dst: int(ds.vals[v].bank), w: v})
		ds.stats.OutputMoves++
	}
	ds.ops = append(ds.ops, op)
	ds.stats.Execs++
	// Utilization accounting: arithmetic PEs this cycle.
	busy := 0
	for _, p := range block.PEOps {
		if p == arch.PEAdd || p == arch.PEMul {
			busy++
		}
	}
	u := float64(busy) / float64(ds.cfg.NumPEs())
	if u > ds.stats.PeakUtil {
		ds.stats.PeakUtil = u
	}
	ds.stats.MeanUtil += u // normalized at the end of Compile
	ds.emitCopies(post)
	return nil
}

// emitStores writes every DAG sink to data memory. Sinks that are leaves
// already live in the init region; interior sinks get a word in the
// output region (lane = home bank) and are flushed with store or store_4.
func (ds *draftState) emitStores() map[dag.NodeID]int {
	outWord := make(map[dag.NodeID]int)
	byRow := map[int][]ValID{}
	var order []int
	for _, sink := range ds.g.Outputs() {
		v := ValID(sink)
		if ds.vals[v].kind == vLeaf {
			ds.placeLeafWord(v)
			outWord[sink] = int(ds.vals[v].word)
			continue
		}
		// The output region shares the init region's first-fit allocator
		// and interleaves with it harmlessly since words are unique.
		ds.vals[v].word = ds.firstFitWord(int(ds.vals[v].bank))
		outWord[sink] = int(ds.vals[v].word)
		row := int(ds.vals[v].word) / ds.cfg.B
		if _, ok := byRow[row]; !ok {
			order = append(order, row)
		}
		byRow[row] = append(byRow[row], v)
	}
	for _, row := range order {
		vals := byRow[row]
		if len(vals) > arch.MaxMoves {
			// Full-vector store: every value sits in its lane's bank.
			ds.ops = append(ds.ops, &draftOp{kind: dStore, row: row, reads: vals})
			ds.stats.Stores++
			continue
		}
		op := &draftOp{kind: dStore4, row: row}
		for _, v := range vals {
			op.moves = append(op.moves, draftMove{src: v, dst: int(ds.vals[v].word) % ds.cfg.B, w: InvalidVal})
			op.reads = append(op.reads, v)
		}
		ds.ops = append(ds.ops, op)
		ds.stats.Stores++
	}
	return outWord
}

// buildDraft runs loads/repairs/execs/stores for every block in schedule
// order and returns the draft op list plus the sink→word map.
func (ds *draftState) buildDraft(blocks []*Block) (map[dag.NodeID]int, error) {
	ds.placeLeaves(blocks)
	ds.rowSeen = resize(ds.rowSeen, len(ds.rowVals))
	nin, nout := 0, 0
	for _, b := range blocks {
		nin += len(b.Inputs)
		nout += len(b.Outputs)
	}
	ds.valArena = make([]ValID, 0, nin+nout)
	ds.bankArena = make([]int8, 0, nout)
	for bi, b := range blocks {
		ds.emitLoads(b, bi)
		repairs := ds.repairInputs(b)
		if err := ds.emitExec(b, repairs); err != nil {
			return nil, err
		}
	}
	return ds.emitStores(), nil
}
