package regfile

import (
	"errors"
	"fmt"

	"dpuv2/internal/arch"
)

// Semantics is what a Walker's caller supplies: what a PE computes, the
// data memory, and the policy for hazards. An error from Load, Store or
// Hazard fails the step that raised it: the walker finishes the cycle
// optimistically — a read returns the register's stale payload, a PE
// counts as live, a write still lands (a conflicting one is dropped), a
// double-read lane is skipped — and Step or Drain returns the first
// error. A caller that returns nil, as the verifier does, walks on.
type Semantics[P any] interface {
	// Op is the output of a PE configured as op. A copy_4 lane passes its
	// word through Op as a left bypass, and a write-back of an idle PE
	// lands Op(PEIdle), so every payload a write lands comes from Op or
	// Load.
	Op(op arch.PEOp, l, r P) P
	// Load reads data-memory word addr for a load lane.
	Load(addr int) (P, error)
	// Store writes p to data-memory word addr for a store or store_4 lane.
	Store(addr int, p P) error
	// Hazard reports a breach of the timing contract.
	Hazard(h Hazard[P]) error
}

// HazardKind names a way an instruction stream breaks the timing
// contract.
type HazardKind uint8

const (
	UninitRead    HazardKind = iota // a read of a register never written, or already freed
	BankOverflow                    // a landing write finds its bank full and is dropped
	WriteConflict                   // a second write lands on one bank in one cycle
	DeadOperand                     // a port with no read enable, a PE reading an idle child, a write-back of an idle PE
	DoubleRead                      // a copy_4 or store_4 reads one bank in two lanes
	DeadReset                       // a valid_rst on a bank not read: it frees nothing, so it is harmless
)

// Hazard is one breach of the timing contract.
type Hazard[P any] struct {
	Kind    HazardKind
	Bank    int // -1 when no bank is involved
	PE      int // -1 when no PE is involved
	Payload P   // WriteConflict: the write already landing; BankOverflow: the dropped one
	Msg     string
}

// Walker issues an instruction stream one instruction per cycle on a
// register file whose landings carry P. It owns the File, the B×R
// payloads and the exec scratch; the caller's Semantics supplies the
// rest. Instructions must pass arch.Instr.Validate, the verifier's
// structural check: the walker indexes by their fields unchecked.
type Walker[P any] struct {
	cfg  arch.Config
	wire *arch.Wiring
	sem  Semantics[P]
	rf   *File[P]
	regs []P      // bank-major B×R; meaningful only where rf says valid
	ever []uint64 // bank-major B×R bits: a write has landed at the address

	cycle         int
	reads, writes int
	fault         error // first failure of the current cycle

	// exec scratch, reused every cycle: the liveness flags (portUsed,
	// live) say which payloads (port, val) this instruction wrote.
	portUsed []bool
	readBank []bool
	live     []bool
	port     []P
	val      []P

	occTrace func(cycle int, perBank []int) // Occupancy's per-cycle hook, or nil
}

// NewWalker returns a walker at cycle 0 with an empty register file.
func NewWalker[P any](cfg arch.Config, sem Semantics[P]) *Walker[P] {
	return &Walker[P]{
		cfg:      cfg,
		wire:     cfg.Wiring(),
		sem:      sem,
		rf:       New[P](cfg.B, cfg.R, cfg.WriteLatency(arch.KindExec)),
		regs:     make([]P, cfg.B*cfg.R),
		ever:     make([]uint64, (cfg.B*cfg.R+63)/64),
		portUsed: make([]bool, cfg.B),
		readBank: make([]bool, cfg.B),
		live:     make([]bool, cfg.NumPEs()),
		port:     make([]P, cfg.B),
		val:      make([]P, cfg.NumPEs()),
	}
}

// Reset returns the walker to cycle 0 with an empty register file, as
// NewWalker left it, reusing every allocation.
func (w *Walker[P]) Reset() {
	w.rf.Reset()
	clear(w.regs)
	clear(w.ever)
	clear(w.port)
	clear(w.val)
	w.cycle, w.reads, w.writes, w.fault = 0, 0, 0, nil
}

// Cycle returns the number of cycles walked so far.
func (w *Walker[P]) Cycle() int { return w.cycle }

// Traffic returns the register reads issued and the writes landed so far.
func (w *Walker[P]) Traffic() (reads, writes int) { return w.reads, w.writes }

// Step issues in at the current cycle, then lands the cycle's writes and
// advances the clock.
func (w *Walker[P]) Step(in *arch.Instr) error {
	w.issue(in)
	return w.tick()
}

// Drain lands every write still in flight: arch.Config.Drain cycles with
// no issue.
func (w *Walker[P]) Drain() error {
	for range w.cfg.Drain() {
		if err := w.tick(); err != nil {
			return err
		}
	}
	return nil
}

// Occupancy walks p with no payload and reports the per-bank count of
// valid registers after every cycle, drain included. Occupancy depends
// on the instruction stream alone: which address a write takes and when
// it lands are fixed at compile time.
func Occupancy(p *arch.Program, fn func(cycle int, perBank []int)) error {
	w := NewWalker[struct{}](p.Cfg, noPayload{})
	w.occTrace = fn
	for i := range p.Instrs {
		if err := w.Step(&p.Instrs[i]); err != nil {
			return fmt.Errorf("regfile: instruction %d (%v): %w", i, p.Instrs[i].Kind, err)
		}
	}
	return w.Drain()
}

// noPayload is the Semantics of a walk that tracks occupancy only.
type noPayload struct{}

func (noPayload) Op(arch.PEOp, struct{}, struct{}) struct{} { return struct{}{} }
func (noPayload) Load(int) (struct{}, error)                { return struct{}{}, nil }
func (noPayload) Store(int, struct{}) error                 { return nil }
func (noPayload) Hazard(h Hazard[struct{}]) error {
	if h.Kind == DeadReset {
		return nil
	}
	return errors.New(h.Msg)
}

// fail keeps the first error of the cycle.
func (w *Walker[P]) fail(err error) {
	if w.fault == nil {
		w.fault = err
	}
}

func (w *Walker[P]) hazard(kind HazardKind, bank, pe int, p P, format string, args ...any) {
	w.fail(w.sem.Hazard(Hazard[P]{Kind: kind, Bank: bank, PE: pe, Payload: p, Msg: fmt.Sprintf(format, args...)}))
}

const deadReset = "valid_rst frees nothing (bank not read)"

func (w *Walker[P]) issue(in *arch.Instr) {
	var zero P
	row := in.MemAddr * w.cfg.B
	land := w.cycle + w.cfg.WriteLatency(in.Kind)
	switch in.Kind {
	case arch.KindNop:
	case arch.KindExec:
		w.exec(in, land)
	case arch.KindLoad:
		for lane, en := range in.Mask {
			if en {
				p, err := w.sem.Load(row + lane)
				w.fail(err)
				w.write(lane, p, land)
			}
		}
	case arch.KindStore:
		for b, bc := range in.Banks {
			addr := int(bc.ReadAddr)
			switch {
			case bc.ReadEn:
				w.fail(w.sem.Store(row+b, w.read(b, addr)))
				if bc.ValidRst {
					w.rf.Free(b, addr)
				}
			case bc.ValidRst:
				w.hazard(DeadReset, b, -1, zero, deadReset)
			}
		}
	case arch.KindCopy, arch.KindStore4:
	lanes:
		for i, mv := range in.Moves {
			bank, addr := int(mv.SrcBank), int(mv.SrcAddr)
			for _, prev := range in.Moves[:i] {
				if int(prev.SrcBank) == bank {
					w.hazard(DoubleRead, bank, -1, zero, "two reads of bank %d in one %s", bank, in.Kind)
					continue lanes
				}
			}
			p := w.read(bank, addr)
			if mv.Rst {
				w.rf.Free(bank, addr)
			}
			if in.Kind == arch.KindCopy {
				w.write(int(mv.Dst), w.sem.Op(arch.PEBypassL, p, p), land)
			} else {
				w.fail(w.sem.Store(row+int(mv.Dst), p))
			}
		}
	default:
		w.fail(fmt.Errorf("unknown kind %d", in.Kind))
	}
}

// exec evaluates the PE trees for one datapath cycle: demand-driven
// reads through the input crossbar, then the valid_rst frees, then the
// layers from the leaves up, then the write-backs, landing at land.
func (w *Walker[P]) exec(in *arch.Instr, land int) {
	var zero P
	cfg, wi := w.cfg, w.wire
	clear(w.readBank)
	clear(w.live)
	// A port is live only if a leaf PE consumes it. A bank is checked on
	// its first read; the crossbar broadcasts it to every port selecting
	// it.
	wi.MarkPorts(in.PEOps, w.portUsed)
	for pn, used := range w.portUsed {
		if !used {
			continue
		}
		bank := int(in.Banks[pn].InputSel)
		rd := &in.Banks[bank]
		switch {
		case !rd.ReadEn:
			w.hazard(DeadOperand, bank, -1, zero, "port %d selects bank %d which has no read enable", pn, bank)
		case w.readBank[bank]:
			w.reads++
			w.port[pn] = w.regs[bank*cfg.R+int(rd.ReadAddr)]
		default:
			w.readBank[bank] = true
			w.port[pn] = w.read(bank, int(rd.ReadAddr))
		}
	}
	// valid_rst applies after the cycle's reads: the crossbar broadcasts
	// one bank read to every subscribed port before the slot is released.
	for bank, bc := range in.Banks {
		switch {
		case bc.ValidRst && w.readBank[bank]:
			w.rf.Free(bank, int(bc.ReadAddr))
		case bc.ValidRst:
			w.hazard(DeadReset, bank, -1, zero, deadReset)
		}
	}
	// The leaf layer reads ports, the layers above read their children.
	src, srcLive := w.port, w.portUsed
	for l := 1; l <= cfg.D; l++ {
		if l == 2 {
			src, srcLive = w.val, w.live
		}
		for _, id := range wi.Layers[l] {
			op := in.PEOps[id]
			if op == arch.PEIdle {
				continue
			}
			left, right := wi.Left[id], wi.Right[id]
			if needL, needR := op.Operands(); needL && !srcLive[left] || needR && !srcLive[right] {
				w.hazard(DeadOperand, -1, id, zero, "PE %d (%s) consumes a dead operand", id, op)
			}
			w.val[id] = w.sem.Op(op, src[left], src[right])
			w.live[id] = true
		}
	}
	// Write-backs through the output interconnect.
	for bank, bc := range in.Banks {
		if !bc.WriteEn {
			continue
		}
		id := cfg.PEID(cfg.SelPE(bank, bc.WriteSel))
		p := w.val[id]
		if !w.live[id] {
			w.hazard(DeadOperand, bank, id, zero, "bank %d writes output of idle PE %d", bank, id)
			p = w.sem.Op(arch.PEIdle, zero, zero)
		}
		w.write(bank, p, land)
	}
}

// read returns the payload of a register read at issue.
func (w *Walker[P]) read(bank, addr int) P {
	i := bank*w.cfg.R + addr
	if !w.rf.Valid(bank, addr) {
		format := "read of never-written register %d.%d (RAW hazard escaped the compiler)"
		if w.ever[i>>6]&(1<<uint(i&63)) != 0 {
			format = "read of freed register %d.%d (use after valid_rst)"
		}
		var zero P
		w.hazard(UninitRead, bank, -1, zero, format, bank, addr)
	}
	w.reads++
	return w.regs[i]
}

// write schedules p to land on bank at the end of cycle land.
func (w *Walker[P]) write(bank int, p P, land int) {
	if other, ok := w.rf.Schedule(bank, land, p); !ok {
		w.hazard(WriteConflict, bank, -1, other, "two writes land on bank %d at cycle %d", bank, land)
	}
}

// tick lands the current cycle's writes, after the cycle's frees, and
// advances the clock.
func (w *Walker[P]) tick() error {
	w.rf.Land(w.cycle, w.land)
	if w.occTrace != nil {
		w.occTrace(w.cycle, w.rf.Occupied())
	}
	w.cycle++
	err := w.fault
	w.fault = nil
	return err
}

// land stores one landing write's payload at the address the register
// file chose for it.
func (w *Walker[P]) land(bank, addr int, p P) {
	if addr < 0 {
		w.hazard(BankOverflow, bank, -1, p, "bank %d overflows at cycle %d (all %d registers live)", bank, w.cycle, w.cfg.R)
		return
	}
	i := bank*w.cfg.R + addr
	w.regs[i] = p
	w.ever[i>>6] |= 1 << uint(i&63)
	w.writes++
}
