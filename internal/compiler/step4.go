package compiler

import (
	"errors"
	"fmt"
	"sync"

	"dpuv2/internal/arch"
	"dpuv2/internal/regfile"
)

// Step 4 — register allocation, spilling and emission (§IV-D).
//
// The hardware writes every incoming value to the lowest free address of
// its bank (valid-bit priority encoder), so the compiler runs the exact
// same deterministic policy over the schedule: it tracks per-bank
// occupancy cycle by cycle, learns each value's address when its write
// "lands", encodes read addresses and last-read valid_rst bits, and when
// a bank would overflow spills the resident value with the furthest next
// use (Belady) via store_4, reloading it before its next consumer. Step 3
// already spaces the draft for operand latency and each bank's one write
// port, so the nops step 4 inserts for a RAW hazard or a write-port
// collision arise only around the spill stores and reloads it adds; on a
// draft that needs no spill it emits step 3's schedule nop for nop.
//
// Micro-timing contract (the register file's half — lowest-free
// addresses, landing ring, frees before landings — is internal/regfile,
// shared with the simulator and the verifier):
//   - an instruction issued at cycle t performs its register reads (and
//     valid_rst frees) at t;
//   - its writes land at the end of cycle t+arch.Config.WriteLatency (1
//     for load and copy, D for exec) and are readable from the next;
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

	out *arch.Builder // the program so far

	loc      []int16 // register address per resident value
	resident []bool
	held     []ValID // bank-major B×R: the value at each address, or InvalidVal
	spilled  []bool  // evicted to memory; reload before the next use

	// rf replays the hardware's allocation; a landing write carries the
	// value it delivers, and land records where it went.
	rf       *regfile.File[ValID]
	landFn   func(bank, addr int, v ValID) // r.land, bound once
	overflow error

	// The schedule positions of every value's planned reads, in CSR
	// form: value v's are uses[useOff[v]:useOff[v+1]], ascending, and
	// usePtr[v] indexes the next one not yet consumed.
	uses   []int32
	useOff []int32
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
	// ensureCapacity's victims, emitSpills' batches and emitOp's store
	// operands, reused likewise.
	victims, spillBatch, spillKeep, storeReads []ValID

	stats Stats
}

// emitScratch is what Emit reuses from draft to draft and, through
// emitPool, from one Emit to the next: step 4's arrays, the value table
// it spills into, and an instruction builder for the draft being
// emitted (the shortest program so far holds one of its own).
type emitScratch struct {
	ra   regalloc
	vals []valInfo
	buf  arch.Builder
}

var emitPool = sync.Pool{New: func() any { return new(emitScratch) }}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset readies r to emit sched, whose draft's value table vals (r's own
// copy) fills rows below spillBase, with stats as the counts so far and
// out as the instruction builder; every array of an earlier run is
// reused.
func (r *regalloc) reset(cfg arch.Config, vals []valInfo, spillBase int, sched []*draftOp, stats Stats, out *arch.Builder) {
	if r.rf == nil || r.cfg.B != cfg.B || r.cfg.R != cfg.R || r.cfg.D != cfg.D {
		r.rf = regfile.New[ValID](cfg.B, cfg.R, cfg.WriteLatency(arch.KindExec))
	} else {
		r.rf.Reset()
	}
	if r.landFn == nil {
		r.landFn = r.land
	}
	nv := len(vals)
	r.cfg, r.vals, r.spillBase, r.stats, r.out = cfg, vals, spillBase, stats, out
	r.spillRows = r.spillRows[:0]
	r.overflow = nil
	resetBuilder(out, cfg, sched)
	r.loc = resize(r.loc, nv)
	for i := range r.loc {
		r.loc[i] = -1
	}
	r.resident = resize(r.resident, nv)
	r.held = resize(r.held, cfg.B*cfg.R)
	for i := range r.held {
		r.held[i] = InvalidVal
	}
	r.spilled = resize(r.spilled, nv)
	r.useOff = resize(r.useOff, nv+1)
	r.usePtr = resize(r.usePtr, nv)
	r.spillHint = resize(r.spillHint, cfg.B)
	r.pin = resize(r.pin, nv)
	r.pinStamp = 0
	r.need = resize(r.need, cfg.B)
	r.reloadNeed = resize(r.reloadNeed, cfg.B)
	// Count the reads per value, give each value its run, then fill the
	// runs in schedule order, with usePtr as the cursors.
	for _, op := range sched {
		if op != nil {
			for _, v := range op.reads {
				r.useOff[v+1]++
			}
		}
	}
	for v := range nv {
		r.useOff[v+1] += r.useOff[v]
	}
	r.uses = resize(r.uses, int(r.useOff[nv]))
	copy(r.usePtr, r.useOff)
	for j, op := range sched {
		if op != nil {
			for _, v := range op.reads {
				r.uses[r.usePtr[v]] = int32(j)
				r.usePtr[v]++
			}
		}
	}
	copy(r.usePtr, r.useOff)
}

func (r *regalloc) cycle() int { return r.out.Len() }

func (r *regalloc) bankOf(v ValID) int { return int(r.vals[v].bank) }

func (r *regalloc) nextUse(v ValID) int32 {
	if r.usePtr[v] < r.useOff[v+1] {
		return r.uses[r.usePtr[v]]
	}
	return useInf
}

// consume advances v's use pointer and reports whether that read was the
// last planned one (→ valid_rst).
func (r *regalloc) consume(v ValID) bool {
	r.usePtr[v]++
	return r.usePtr[v] >= r.useOff[v+1]
}

// land records where a landing write went. Capacity planning makes a
// full bank a compiler bug.
func (r *regalloc) land(bank, addr int, v ValID) {
	if addr < 0 {
		if r.overflow == nil {
			r.overflow = fmt.Errorf("compiler: bank %d overflow at cycle %d (capacity planning bug)", bank, r.cycle()-1)
		}
		return
	}
	r.loc[v] = int16(addr)
	r.resident[v] = true
	r.held[bank*r.cfg.R+addr] = v
}

// emit appends instr at the current cycle: frees apply now, writes land
// when the instruction's kind writes (arch.Config.WriteLatency), then
// writes landing exactly at t are applied.
func (r *regalloc) emit(in arch.Instr, frees []ValID, writes []pendingWrite) error {
	t := r.cycle()
	lat := r.cfg.WriteLatency(in.Kind)
	r.out.Append(in)
	for _, v := range frees {
		r.rf.Free(r.bankOf(v), int(r.loc[v]))
		r.held[r.bankOf(v)*r.cfg.R+int(r.loc[v])] = InvalidVal
		r.resident[v] = false
		r.loc[v] = -1
	}
	for _, w := range writes {
		if _, ok := r.rf.Schedule(w.bank, t+lat, w.val); !ok {
			return fmt.Errorf("compiler: two writes land on bank %d at cycle %d (scheduling bug)", w.bank, t+lat)
		}
	}
	r.rf.Land(t, r.landFn)
	return r.overflow
}

func (r *regalloc) emitNop() error {
	r.stats.Nops++
	return r.emit(arch.Instr{Kind: arch.KindNop}, nil, nil)
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
// furthest next use, the lowest value id among equals. O(R).
func (r *regalloc) pickVictim(bank int, already []ValID) ValID {
	best := InvalidVal
	var bestUse int32 = -1
	for _, vid := range r.held[bank*r.cfg.R : (bank+1)*r.cfg.R] {
		if vid == InvalidVal || r.pin[vid] == r.pinStamp {
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
		if nu := r.nextUse(vid); nu > bestUse || nu == bestUse && vid < best {
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
	remaining := append(r.spillKeep[:0], victims...)
	for len(remaining) > 0 {
		batch := r.spillBatch[:0]
		keep := remaining[:0]
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
		r.spillBatch, remaining = batch, keep
		in := arch.Instr{Kind: arch.KindStore4, MemAddr: row, Moves: r.out.Moves(len(batch))}
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
		if err := r.emit(in, batch, nil); err != nil {
			return err
		}
	}
	r.spillKeep = remaining
	return nil
}

// ensureCapacity spills until every bank can absorb need[bank] incoming
// writes; pinned values (operands of the op about to issue) stay.
func (r *regalloc) ensureCapacity(need []int) error {
	for round := 0; ; round++ {
		victims := r.victims[:0]
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
		r.victims = victims
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
	for r.rf.Busy(bank, r.cycle()+r.cfg.WriteLatency(arch.KindLoad)) {
		if err := r.emitNop(); err != nil {
			return err
		}
	}
	in := r.out.Load(r.cfg, word/r.cfg.B)
	in.Mask[bank] = true
	r.stats.Reloads++
	r.spilled[v] = false
	w := [1]pendingWrite{{v, bank}}
	return r.emit(in, nil, w[:])
}

// errNotShorter stops run once its program is as long as the limit it
// was given: a program that long would lose to the one already emitted.
var errNotShorter = errors.New("compiler: step 4 reached the length of a program already emitted")

// run emits the schedule into r.out, or returns errNotShorter as soon as
// the program reaches limit instructions.
func (r *regalloc) run(sched []*draftOp, limit int) error {
	for _, op := range sched {
		if op == nil {
			// Scheduler nop slot: only emit it if a hazard actually
			// remains; step 4 inserts its own nops on demand, so
			// scheduler slots are elided to keep the stream dense.
			continue
		}
		if err := r.emitOp(op); err != nil {
			return err
		}
		if r.cycle() >= limit {
			return errNotShorter
		}
	}
	return nil
}

func (r *regalloc) emitOp(op *draftOp) error {
	reads := op.reads
	if op.kind == dStore || op.kind == dStore4 {
		// Values already spilled sit at their destination word (spill
		// words and store words coincide); keep only resident or
		// in-flight ones.
		reads = r.storeReads[:0]
		for _, v := range op.reads {
			if r.resident[v] || !r.spilled[v] {
				reads = append(reads, v)
			}
		}
		r.storeReads = reads
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
	for r.busy(need, r.cycle()+r.cfg.WriteLatency(op.kind)) {
		if err := r.emitNop(); err != nil {
			return err
		}
	}
	// Build and emit the concrete instruction.
	var in arch.Instr
	frees := r.frees[:0]
	switch op.kind {
	case dLoad:
		in = r.out.Load(r.cfg, op.row)
		for _, v := range op.wrs {
			in.Mask[r.bankOf(v)] = true
		}
	case dCopy, dStore4:
		// A copy's row is 0, and prepareReads made its sources resident,
		// so only a store_4 skips a lane.
		in = arch.Instr{Kind: op.kind, MemAddr: op.row, Moves: r.out.Moves(len(op.moves))}
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
	case dExec, dStore:
		if op.kind == dExec {
			in = r.out.Exec(r.cfg)
			copy(in.PEOps, op.block.PEOps)
		} else {
			in = r.out.Store(r.cfg, op.row)
		}
		// A store's reads are those left above: already spilled values
		// sit at their destination word.
		for _, v := range reads {
			bc := &in.Banks[r.bankOf(v)]
			bc.ReadEn, bc.ReadAddr = true, uint16(r.loc[v])
			if r.consume(v) {
				bc.ValidRst = true
				frees = append(frees, v)
			}
		}
		if op.kind == dStore {
			break
		}
		for port, v := range op.block.PortVal {
			if v == InvalidVal {
				continue
			}
			in.Banks[port].InputSel = uint16(r.bankOf(op.readOf(v)))
		}
		for i := range op.block.Outputs {
			b := int(op.outBank[i])
			sel, err := r.cfg.WriteSel(b, op.block.OutPE[i])
			if err != nil {
				return err
			}
			in.Banks[b].WriteEn, in.Banks[b].WriteSel = true, sel
		}
	default:
		return fmt.Errorf("compiler: unknown draft op kind %d", op.kind)
	}
	r.frees = frees
	return r.emit(in, frees, writes)
}

// resetBuilder empties out and makes room for the program sched will
// likely emit under cfg: one instruction per schedule slot and the
// execs, loads, stores and move lanes it schedules, with an eighth more
// of each, and 8 more instructions and lanes, for spill traffic.
func resetBuilder(out *arch.Builder, cfg arch.Config, sched []*draftOp) {
	var execs, loads, stores, moves int
	for _, op := range sched {
		if op == nil {
			continue
		}
		switch op.kind {
		case dExec:
			execs++
		case dLoad:
			loads++
		case dStore:
			stores++
		default:
			moves += len(op.moves)
		}
	}
	room := func(n int) int { return n + n/8 }
	out.Reset(cfg, room(len(sched))+8, room(execs), room(loads), room(stores), room(moves)+8)
}
