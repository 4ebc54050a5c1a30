package compiler

import (
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/regfile"
)

// Step 4 — register allocation, spilling and emission (§IV-D).
//
// The hardware writes every incoming value to the lowest free address of
// its bank (valid-bit priority encoder), so the compiler runs the exact
// same deterministic policy over the schedule: it tracks per-bank
// occupancy cycle by cycle, learns each value's address when its write
// "lands", encodes read addresses and last-read valid_rst bits, inserts
// nops for residual RAW hazards and write-port collisions, and when a
// bank would overflow spills the resident value with the furthest next
// use (Belady) via store_4, reloading it before its next consumer.
//
// Micro-timing contract (the register file's half — lowest-free
// addresses, landing ring, frees before landings — is internal/regfile,
// shared with the simulator and the verifier):
//   - an instruction issued at cycle t performs its register reads (and
//     valid_rst frees) at t;
//   - its writes land at the end of cycle t+1 (load, copy) or t+D (exec)
//     and become readable from cycle t+2 / t+D+1;
//   - within one cycle, frees apply before landing writes allocate;
//   - at most one write may land per bank per cycle.

const useInf = int32(1 << 30)

type pendingWrite struct {
	val  ValID
	bank int
}

type regalloc struct {
	cfg arch.Config

	// vals is the emit's own copy of the plan's value table: spilling
	// gives values memory words. The spill region starts empty at row
	// spillBase, above every row the plan laid out, and spillRows[i] is
	// the lane occupancy of its row spillBase+i.
	vals      []valInfo
	spillBase int
	spillRows []uint64

	out []*arch.Instr

	loc      []int16 // register address per resident value
	resident []bool
	spilled  []bool // evicted to memory; reload before the next use

	// rf replays the hardware's allocation; a landing write carries the
	// value it delivers, and land records where it went.
	rf       *regfile.File[ValID]
	overflow error

	uses   [][]int32 // per value: schedule positions of planned reads
	usePtr []int32

	spillHint []int // first-fit cursor per bank, an index into spillRows

	// emitOp's scratch, reused across ops: pin[v] == pinStamp marks the
	// operands of the op being emitted (never evicted for it), need counts
	// its incoming writes per bank (reloadNeed is reload's one-bank
	// equivalent), and writes/frees are its register-file effects.
	pin        []int32
	pinStamp   int32
	need       []int
	reloadNeed []int
	writes     []pendingWrite
	frees      []ValID

	stats *Stats
}

func newRegalloc(cfg arch.Config, vals []valInfo, spillBase int, sched []*draftOp, stats *Stats) *regalloc {
	nv := len(vals)
	r := &regalloc{
		cfg: cfg, vals: vals, spillBase: spillBase,
		loc:        make([]int16, nv),
		resident:   make([]bool, nv),
		spilled:    make([]bool, nv),
		rf:         regfile.New[ValID](cfg.B, cfg.R, cfg.D),
		uses:       make([][]int32, nv),
		usePtr:     make([]int32, nv),
		spillHint:  make([]int, cfg.B),
		pin:        make([]int32, nv),
		need:       make([]int, cfg.B),
		reloadNeed: make([]int, cfg.B),
		stats:      stats,
	}
	for i := range r.loc {
		r.loc[i] = -1
	}
	for j, op := range sched {
		if op == nil {
			continue
		}
		for _, v := range op.reads {
			r.uses[v] = append(r.uses[v], int32(j))
		}
	}
	return r
}

func (r *regalloc) cycle() int { return len(r.out) }

func (r *regalloc) bankOf(v ValID) int { return int(r.vals[v].bank) }

func (r *regalloc) nextUse(v ValID) int32 {
	if int(r.usePtr[v]) < len(r.uses[v]) {
		return r.uses[v][r.usePtr[v]]
	}
	return useInf
}

// consume advances v's use pointer and reports whether that read was the
// last planned one (→ valid_rst).
func (r *regalloc) consume(v ValID) bool {
	r.usePtr[v]++
	return int(r.usePtr[v]) >= len(r.uses[v])
}

// land records where a landing write went. Capacity planning makes a
// full bank a compiler bug.
func (r *regalloc) land(bank, addr int, v ValID) {
	if addr < 0 {
		if r.overflow == nil {
			r.overflow = fmt.Errorf("compiler: bank %d overflow at cycle %d (capacity planning bug)", bank, len(r.out)-1)
		}
		return
	}
	r.loc[v] = int16(addr)
	r.resident[v] = true
}

// emit appends instr at the current cycle: frees apply now, writes land at
// t+lat, then writes landing exactly at t are applied.
func (r *regalloc) emit(in *arch.Instr, frees []ValID, writes []pendingWrite, lat int) error {
	t := r.cycle()
	r.out = append(r.out, in)
	for _, v := range frees {
		r.rf.Free(r.bankOf(v), int(r.loc[v]))
		r.resident[v] = false
		r.loc[v] = -1
	}
	for _, w := range writes {
		if _, ok := r.rf.Schedule(w.bank, t+lat, w.val); !ok {
			return fmt.Errorf("compiler: two writes land on bank %d at cycle %d (scheduling bug)", w.bank, t+lat)
		}
	}
	r.rf.Land(t, r.land)
	return r.overflow
}

func (r *regalloc) emitNop() error {
	r.stats.Nops++
	return r.emit(&arch.Instr{Kind: arch.KindNop}, nil, nil, 1)
}

// busy reports whether a write to any bank of need already lands at land.
func (r *regalloc) busy(need []int, land int) bool {
	for b, n := range need {
		if n > 0 && r.rf.Busy(b, land) {
			return true
		}
	}
	return false
}

// pickVictim selects the resident, unpinned value of bank with the
// furthest next use. O(values); spills are rare at sane R.
func (r *regalloc) pickVictim(bank int, already []ValID) ValID {
	best := InvalidVal
	var bestUse int32 = -1
	for v := range r.vals {
		vid := ValID(v)
		if !r.resident[vid] || r.bankOf(vid) != bank || r.pin[vid] == r.pinStamp {
			continue
		}
		dup := false
		for _, u := range already {
			if u == vid {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if nu := r.nextUse(vid); nu > bestUse {
			bestUse = nu
			best = vid
		}
	}
	return best
}

// spillWord returns (allocating if needed) the memory word backing v when
// evicted. Values with an existing word (leaves, stored sinks, previously
// spilled values) reuse it; the stored image is identical either way.
func (r *regalloc) spillWord(v ValID) int {
	if r.vals[v].word >= 0 {
		return int(r.vals[v].word)
	}
	bank := r.bankOf(v)
	for row := r.spillHint[bank]; ; row++ {
		if row == len(r.spillRows) {
			r.spillRows = append(r.spillRows, 0)
		}
		if r.spillRows[row]&(1<<uint(bank)) == 0 {
			r.spillRows[row] |= 1 << uint(bank)
			r.spillHint[bank] = row
			w := (r.spillBase+row)*r.cfg.B + bank
			r.vals[v].word = int32(w)
			return w
		}
	}
}

// emitSpills flushes victims to memory via store_4 (read + valid_rst
// frees the register), batching lanes with distinct source banks sharing
// a memory row.
func (r *regalloc) emitSpills(victims []ValID) error {
	remaining := append([]ValID(nil), victims...)
	for len(remaining) > 0 {
		var batch []ValID
		var keep []ValID
		var mask uint64
		row := -1
		for _, v := range remaining {
			b := uint(r.bankOf(v))
			w := r.spillWord(v)
			vr := w / r.cfg.B
			if len(batch) < arch.MaxMoves && mask&(1<<b) == 0 && (row < 0 || vr == row) {
				batch = append(batch, v)
				mask |= 1 << b
				row = vr
			} else {
				keep = append(keep, v)
			}
		}
		remaining = keep
		in := &arch.Instr{Kind: arch.KindStore4, MemAddr: row}
		for _, v := range batch {
			in.Moves = append(in.Moves, arch.Move{
				SrcBank: uint16(r.bankOf(v)),
				SrcAddr: uint16(r.loc[v]),
				Dst:     uint16(int(r.vals[v].word) % r.cfg.B),
				Rst:     true,
			})
			r.spilled[v] = true
		}
		r.stats.SpillStores += len(batch)
		if err := r.emit(in, batch, nil, 1); err != nil {
			return err
		}
	}
	return nil
}

// ensureCapacity spills until every bank can absorb need[bank] incoming
// writes; pinned values (operands of the op about to issue) stay.
func (r *regalloc) ensureCapacity(need []int) error {
	for round := 0; ; round++ {
		var victims []ValID
		// Banks in ascending order: the victim list decides how spills
		// batch into store_4s, and which bank an undersized register file
		// is reported on.
		for bank, n := range need {
			if n == 0 {
				continue
			}
			over := r.rf.Occupied()[bank] + r.rf.InFlight(bank) + n - r.cfg.R
			for _, v := range victims {
				if r.bankOf(v) == bank {
					over--
				}
			}
			for ; over > 0; over-- {
				v := r.pickVictim(bank, victims)
				if v == InvalidVal {
					return fmt.Errorf("compiler: register file too small (R=%d, bank %d): working set exceeds capacity", r.cfg.R, bank)
				}
				victims = append(victims, v)
			}
		}
		if len(victims) == 0 {
			return nil
		}
		if round > r.cfg.B*r.cfg.R {
			return fmt.Errorf("compiler: spill livelock on banks %v (incoming writes per bank)", need)
		}
		if err := r.emitSpills(victims); err != nil {
			return err
		}
	}
}

// prepareReads reloads spilled operands and stalls until every operand is
// readable.
func (r *regalloc) prepareReads(reads []ValID) error {
	for _, v := range reads {
		if r.resident[v] || !r.spilled[v] {
			// Resident, or still in flight: waiting below resolves it.
			continue
		}
		if err := r.reload(v); err != nil {
			return err
		}
	}
	for {
		ok := true
		for _, v := range reads {
			if !r.resident[v] {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if err := r.emitNop(); err != nil {
			return err
		}
		if r.cycle() > 1<<26 {
			return fmt.Errorf("compiler: livelock waiting for operands")
		}
	}
}

// reload brings a spilled value back into its home bank.
func (r *regalloc) reload(v ValID) error {
	bank := r.bankOf(v)
	word := int(r.vals[v].word)
	r.reloadNeed[bank] = 1
	err := r.ensureCapacity(r.reloadNeed)
	r.reloadNeed[bank] = 0
	if err != nil {
		return err
	}
	for r.rf.Busy(bank, r.cycle()+1) {
		if err := r.emitNop(); err != nil {
			return err
		}
	}
	in := arch.NewLoad(r.cfg, word/r.cfg.B)
	in.Mask[bank] = true
	r.stats.Reloads++
	r.spilled[v] = false
	return r.emit(in, nil, []pendingWrite{{v, bank}}, 1)
}

// run processes the reordered schedule and produces the final instruction
// list.
func (r *regalloc) run(sched []*draftOp) ([]*arch.Instr, error) {
	for _, op := range sched {
		if op == nil {
			// Scheduler nop slot: only emit it if a hazard actually
			// remains; step 4 inserts its own nops on demand, so
			// scheduler slots are elided to keep the stream dense.
			continue
		}
		if err := r.emitOp(op); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

func (r *regalloc) emitOp(op *draftOp) error {
	reads := op.reads
	if op.kind == dStore || op.kind == dStore4 {
		// Values already spilled sit at their destination word (spill
		// words and store words coincide); keep only resident or
		// in-flight ones.
		reads = reads[:0:0]
		for _, v := range op.reads {
			if r.resident[v] || !r.spilled[v] {
				reads = append(reads, v)
			}
		}
	}
	r.pinStamp++
	for _, v := range reads {
		r.pin[v] = r.pinStamp
	}
	if err := r.prepareReads(reads); err != nil {
		return err
	}
	// Capacity for this op's writes.
	need := r.need
	clear(need)
	writes := r.writes[:0]
	lat := 1
	switch op.kind {
	case dLoad:
		for _, v := range op.wrs {
			b := r.bankOf(v)
			need[b]++
			writes = append(writes, pendingWrite{v, b})
		}
	case dCopy:
		for _, m := range op.moves {
			need[m.dst]++
			writes = append(writes, pendingWrite{m.w, m.dst})
		}
	case dExec:
		lat = r.cfg.D
		for i, w := range op.wrs {
			b := int(op.outBank[i])
			need[b]++
			writes = append(writes, pendingWrite{w, b})
		}
	}
	r.writes = writes
	if len(writes) > 0 {
		if err := r.ensureCapacity(need); err != nil {
			return err
		}
	}
	// Write-port conflicts at the landing cycle.
	for r.busy(need, r.cycle()+lat) {
		if err := r.emitNop(); err != nil {
			return err
		}
	}
	// Build and emit the concrete instruction.
	var in *arch.Instr
	frees := r.frees[:0]
	switch op.kind {
	case dLoad:
		in = arch.NewLoad(r.cfg, op.row)
		for _, v := range op.wrs {
			in.Mask[r.bankOf(v)] = true
		}
	case dCopy:
		in = &arch.Instr{Kind: arch.KindCopy}
		for _, m := range op.moves {
			rst := r.consume(m.src)
			if rst {
				frees = append(frees, m.src)
			}
			in.Moves = append(in.Moves, arch.Move{
				SrcBank: uint16(r.bankOf(m.src)),
				SrcAddr: uint16(r.loc[m.src]),
				Dst:     uint16(m.dst),
				Rst:     rst,
			})
		}
	case dExec:
		in = arch.NewExec(r.cfg)
		copy(in.PEOps, op.block.PEOps)
		for _, rv := range op.reads {
			b := r.bankOf(rv)
			in.ReadEn[b] = true
			in.ReadAddr[b] = uint16(r.loc[rv])
			if r.consume(rv) {
				in.ValidRst[b] = true
				frees = append(frees, rv)
			}
		}
		for port, v := range op.block.PortVal {
			if v == InvalidVal {
				continue
			}
			in.InputSel[port] = uint16(r.bankOf(op.readOf(v)))
		}
		for i := range op.block.Outputs {
			b := int(op.outBank[i])
			sel, err := r.cfg.WriteSel(b, op.block.OutPE[i])
			if err != nil {
				return err
			}
			in.WriteEn[b] = true
			in.WriteSel[b] = sel
		}
	case dStore:
		in = arch.NewStore(r.cfg, op.row)
		for _, v := range op.reads {
			if !r.resident[v] && r.spilled[v] {
				continue // already in memory at its destination (spilled)
			}
			b := r.bankOf(v)
			in.ReadEn[b] = true
			in.ReadAddr[b] = uint16(r.loc[v])
			if r.consume(v) {
				in.ValidRst[b] = true
				frees = append(frees, v)
			}
		}
	case dStore4:
		in = &arch.Instr{Kind: arch.KindStore4, MemAddr: op.row}
		for _, m := range op.moves {
			if !r.resident[m.src] && r.spilled[m.src] {
				continue // spilled to its own destination word already
			}
			rst := r.consume(m.src)
			if rst {
				frees = append(frees, m.src)
			}
			in.Moves = append(in.Moves, arch.Move{
				SrcBank: uint16(r.bankOf(m.src)),
				SrcAddr: uint16(r.loc[m.src]),
				Dst:     uint16(m.dst),
				Rst:     rst,
			})
		}
		if len(in.Moves) == 0 {
			return nil // everything already in memory
		}
	default:
		return fmt.Errorf("compiler: unknown draft op kind %d", op.kind)
	}
	r.frees = frees
	return r.emit(in, frees, writes, lat)
}
