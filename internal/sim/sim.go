// Package sim is the cycle-accurate functional simulator of the DPU-v2
// architecture template, standing in for the paper's SystemVerilog RTL
// model (see DESIGN.md). It executes the decoded instruction stream under
// the same micro-timing contract the compiler plans against:
//
//   - one instruction issues per cycle (the dense packing and alignment
//     shifter of fig. 7 guarantee stall-free supply);
//   - register reads and valid_rst frees happen at issue;
//   - writes land at the end of issue+1 (load, copy) or issue+D (exec);
//   - within a cycle frees apply before landing writes allocate;
//   - a landing write takes the lowest free address of its bank, as
//     chosen by the valid-bit priority encoder of fig. 5(d).
//
// The simulator is strict: reading an invalid register, overflowing a
// bank, or landing two writes on one bank in the same cycle is reported
// as an error rather than arbitrated, because the compiler must have
// eliminated all such hazards at compile time (§II-A).
package sim

import (
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/regfile"
)

// Stats aggregates what the machine does during one execution of a
// program. Everything but PeakActive is a function of the instruction
// stream alone (see StaticStats).
type Stats struct {
	Cycles     int
	Instrs     map[arch.Kind]int
	PEOpsDone  int // arithmetic PE operations (add/mul), including replicas
	RegReads   int
	RegWrites  int
	MemReads   int   // words read from data memory
	MemWrites  int   // words written to data memory
	PeakActive []int // maximum simultaneously valid registers per bank
}

// Machine is the architectural state of one DPU-v2 core. Register
// allocation and the landing pipeline are the shared regfile.File; the
// machine adds the values, the data memory and its strict fault policy.
type Machine struct {
	cfg   arch.Config
	wire  *arch.Wiring
	rf    *regfile.File[float64]
	regs  []float64 // bank-major B×R; read only where rf says valid
	mem   []float64
	cycle int
	fault error // first landing fault of the current cycle

	// exec scratch, sized once in NewMachine and reused every cycle so
	// the hot path does not allocate. The value slices (port, val) may
	// hold stale data between instructions; every read is gated by the
	// corresponding liveness flag (portUsed, live), which are cleared.
	portUsed  []bool
	port      []float64
	readBanks []bool
	val       []float64
	live      []bool

	stats Stats

	// OccTrace, when non-nil, receives the per-bank occupancy after
	// every cycle; fig. 10(c,d) uses it.
	OccTrace func(cycle int, perBank []int)
}

// NewMachine builds a machine for cfg with the given initial data-memory
// image (padded to whole rows; the memory can grow up to cfg.DataMemWords
// through stores).
func NewMachine(cfg arch.Config, initMem []float64) *Machine {
	cfg = cfg.Normalize()
	m := &Machine{
		cfg:       cfg,
		wire:      cfg.Wiring(),
		rf:        regfile.New[float64](cfg.B, cfg.R, cfg.D),
		regs:      make([]float64, cfg.B*cfg.R),
		mem:       make([]float64, len(initMem)),
		portUsed:  make([]bool, cfg.B),
		port:      make([]float64, cfg.B),
		readBanks: make([]bool, cfg.B),
		val:       make([]float64, cfg.NumPEs()),
		live:      make([]bool, cfg.NumPEs()),
	}
	copy(m.mem, initMem)
	m.stats.Instrs = make(map[arch.Kind]int)
	m.stats.PeakActive = make([]int, cfg.B)
	return m
}

// Mem returns the data-memory word at addr (growing view: unwritten words
// read as zero up to the configured capacity).
func (m *Machine) Mem(addr int) (float64, error) {
	if addr < 0 || addr >= m.cfg.DataMemWords {
		return 0, fmt.Errorf("sim: memory address %d out of range", addr)
	}
	if addr >= len(m.mem) {
		return 0, nil
	}
	return m.mem[addr], nil
}

// SetMem writes a data-memory word before execution (the runner uses it
// to install DAG input values).
func (m *Machine) SetMem(addr int, v float64) error {
	if addr < 0 || addr >= m.cfg.DataMemWords {
		return fmt.Errorf("sim: memory address %d out of range", addr)
	}
	for addr >= len(m.mem) {
		m.mem = append(m.mem, 0)
	}
	m.mem[addr] = v
	return nil
}

// Stats returns execution statistics (valid after Run).
func (m *Machine) Stats() Stats { return m.stats }

func (m *Machine) readReg(bank, addr int) (float64, error) {
	if addr < 0 || addr >= m.cfg.R {
		return 0, fmt.Errorf("sim: cycle %d: read addr %d out of range on bank %d", m.cycle, addr, bank)
	}
	if !m.rf.Valid(bank, addr) {
		return 0, fmt.Errorf("sim: cycle %d: read of invalid register %d.%d (RAW hazard escaped the compiler)", m.cycle, bank, addr)
	}
	m.stats.RegReads++
	return m.regs[bank*m.cfg.R+addr], nil
}

func (m *Machine) write(bank int, v float64, land int) error {
	if _, ok := m.rf.Schedule(bank, land, v); !ok {
		return fmt.Errorf("sim: cycle %d: two writes land on bank %d at cycle %d", m.cycle, bank, land)
	}
	return nil
}

// land stores one landing write's value at the address the register file
// chose for it.
func (m *Machine) land(bank, addr int, v float64) {
	if addr < 0 {
		if m.fault == nil {
			m.fault = fmt.Errorf("sim: cycle %d: bank %d overflow", m.cycle, bank)
		}
		return
	}
	m.regs[bank*m.cfg.R+addr] = v
	if occ := m.rf.Occupied()[bank]; occ > m.stats.PeakActive[bank] {
		m.stats.PeakActive[bank] = occ
	}
	m.stats.RegWrites++
}

// tick lands the current cycle's writes and advances the clock.
func (m *Machine) tick() error {
	m.rf.Land(m.cycle, m.land)
	if err := m.fault; err != nil {
		m.fault = nil
		return err
	}
	if m.OccTrace != nil {
		m.OccTrace(m.cycle, m.rf.Occupied())
	}
	m.cycle++
	return nil
}

// Run executes the program to completion, including pipeline drain. A
// machine runs once: its register file, landing ring, memory and
// statistics are those the program left, so a second Run is an error —
// build a new machine (or call the package-level Run) per execution.
func (m *Machine) Run(p *arch.Program) error {
	if m.cycle != 0 {
		return fmt.Errorf("sim: machine has already run %d cycles; build a new one per execution", m.cycle)
	}
	for i, in := range p.Instrs {
		if err := m.step(in); err != nil {
			return fmt.Errorf("sim: instruction %d (%v): %w", i, in.Kind, err)
		}
	}
	// Drain the pipeline.
	for d := 0; d < m.cfg.D+1; d++ {
		if err := m.tick(); err != nil {
			return err
		}
	}
	m.stats.Cycles = m.cycle
	return nil
}

func (m *Machine) step(in *arch.Instr) error {
	m.stats.Instrs[in.Kind]++
	switch in.Kind {
	case arch.KindNop:
		// nothing
	case arch.KindExec:
		if err := m.exec(in); err != nil {
			return err
		}
	case arch.KindLoad:
		row := in.MemAddr * m.cfg.B
		for lane, en := range in.Mask {
			if !en {
				continue
			}
			v, err := m.Mem(row + lane)
			if err != nil {
				return err
			}
			m.stats.MemReads++
			if err := m.write(lane, v, m.cycle+1); err != nil {
				return err
			}
		}
	case arch.KindStore:
		row := in.MemAddr * m.cfg.B
		for b, en := range in.ReadEn {
			if !en {
				continue
			}
			v, err := m.readReg(b, int(in.ReadAddr[b]))
			if err != nil {
				return err
			}
			if in.ValidRst[b] {
				m.rf.Free(b, int(in.ReadAddr[b]))
			}
			if err := m.SetMem(row+b, v); err != nil {
				return err
			}
			m.stats.MemWrites++
		}
	case arch.KindCopy, arch.KindStore4:
		row := in.MemAddr * m.cfg.B
		for i, mv := range in.Moves {
			for _, prev := range in.Moves[:i] {
				if prev.SrcBank == mv.SrcBank {
					return fmt.Errorf("two reads of bank %d in one %s", mv.SrcBank, in.Kind)
				}
			}
			v, err := m.readReg(int(mv.SrcBank), int(mv.SrcAddr))
			if err != nil {
				return err
			}
			if mv.Rst {
				m.rf.Free(int(mv.SrcBank), int(mv.SrcAddr))
			}
			if in.Kind == arch.KindCopy {
				err = m.write(int(mv.Dst), v, m.cycle+1)
			} else if err = m.SetMem(row+int(mv.Dst), v); err == nil {
				m.stats.MemWrites++
			}
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown kind %d", in.Kind)
	}
	return m.tick()
}

// exec evaluates the PE trees for one datapath cycle.
func (m *Machine) exec(in *arch.Instr) error {
	cfg, w := m.cfg, m.wire
	// Reset the reused scratch liveness flags; the value slices keep
	// stale data, which is never observed because every read is gated by
	// these flags.
	portUsed, port, readBanks := m.portUsed, m.port, m.readBanks
	val, live := m.val, m.live
	clear(readBanks)
	clear(live)
	// Port values through the input crossbar; a port is live only if a
	// leaf PE consumes it, so reads are demand-driven.
	w.MarkPorts(in.PEOps, portUsed)
	for pn := 0; pn < cfg.B; pn++ {
		if !portUsed[pn] {
			continue
		}
		bank := int(in.InputSel[pn])
		if !in.ReadEn[bank] {
			return fmt.Errorf("port %d selects bank %d which has no read enable", pn, bank)
		}
		v, err := m.readReg(bank, int(in.ReadAddr[bank]))
		if err != nil {
			return err
		}
		port[pn] = v
		readBanks[bank] = true
	}
	// valid_rst applies after the cycle's reads: the crossbar broadcasts
	// one bank read to every subscribed port before the slot is released.
	for bank, read := range readBanks {
		if read && in.ValidRst[bank] {
			m.rf.Free(bank, int(in.ReadAddr[bank]))
		}
	}
	// Evaluate layer by layer: the leaf layer reads ports, the layers
	// above read their children.
	src, srcLive := port, portUsed
	for l := 1; l <= cfg.D; l++ {
		if l == 2 {
			src, srcLive = val, live
		}
		for _, id := range w.Layers[l] {
			op := in.PEOps[id]
			if op == arch.PEIdle {
				continue
			}
			if needL, needR := op.Operands(); needL && !srcLive[w.Left[id]] || needR && !srcLive[w.Right[id]] {
				return fmt.Errorf("PE %d (%s) consumes a dead operand", id, op)
			}
			a, b := src[w.Left[id]], src[w.Right[id]]
			switch op {
			case arch.PEAdd:
				val[id] = a + b
				m.stats.PEOpsDone++
			case arch.PEMul:
				val[id] = a * b
				m.stats.PEOpsDone++
			case arch.PEBypassL:
				val[id] = a
			case arch.PEBypassR:
				val[id] = b
			}
			live[id] = true
		}
	}
	// Write-backs through the output interconnect.
	for bank := 0; bank < cfg.B; bank++ {
		if !in.WriteEn[bank] {
			continue
		}
		id := cfg.PEID(cfg.SelPE(bank, in.WriteSel[bank]))
		if !live[id] {
			return fmt.Errorf("bank %d writes output of idle PE %d", bank, id)
		}
		if err := m.write(bank, val[id], m.cycle+cfg.D); err != nil {
			return err
		}
	}
	return nil
}
