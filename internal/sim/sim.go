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
	"math/bits"

	"dpuv2/internal/arch"
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

// Machine is the architectural state of one DPU-v2 core.
type Machine struct {
	cfg   arch.Config
	regs  [][]float64
	valid [][]bool
	mem   []float64

	// freeBits mirrors valid as a bank-major bitmap (bit set = address
	// free), so the fig. 5(d) valid-bit priority encoder — "a landing
	// write takes the lowest free address of its bank" — is a
	// trailing-zeros scan over at most ceil(R/64) words instead of an
	// O(R) linear probe. freeWords is the number of words per bank.
	freeBits  []uint64
	freeWords int

	ring     [][]landing // pending writes by landing cycle % len
	cycle    int
	occupied []int

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

type landing struct {
	bank int
	val  float64
}

// NewMachine builds a machine for cfg with the given initial data-memory
// image (padded to whole rows; the memory can grow up to cfg.DataMemWords
// through stores).
func NewMachine(cfg arch.Config, initMem []float64) *Machine {
	cfg = cfg.Normalize()
	m := &Machine{
		cfg:       cfg,
		regs:      make([][]float64, cfg.B),
		valid:     make([][]bool, cfg.B),
		mem:       make([]float64, len(initMem)),
		freeWords: (cfg.R + 63) / 64,
		ring:      make([][]landing, cfg.D+2),
		occupied:  make([]int, cfg.B),
		portUsed:  make([]bool, cfg.B),
		port:      make([]float64, cfg.B),
		readBanks: make([]bool, cfg.B),
		val:       make([]float64, cfg.NumPEs()),
		live:      make([]bool, cfg.NumPEs()),
	}
	copy(m.mem, initMem)
	// Single backing arrays for the register file keep NewMachine at a
	// constant allocation count regardless of B.
	regBacking := make([]float64, cfg.B*cfg.R)
	validBacking := make([]bool, cfg.B*cfg.R)
	for b := 0; b < cfg.B; b++ {
		m.regs[b] = regBacking[b*cfg.R : (b+1)*cfg.R : (b+1)*cfg.R]
		m.valid[b] = validBacking[b*cfg.R : (b+1)*cfg.R : (b+1)*cfg.R]
	}
	m.freeBits = make([]uint64, cfg.B*m.freeWords)
	m.fillFreeBits()
	for i := range m.ring {
		m.ring[i] = make([]landing, 0, cfg.B)
	}
	m.stats.Instrs = make(map[arch.Kind]int)
	m.stats.PeakActive = make([]int, cfg.B)
	return m
}

// fillFreeBits marks every register address of every bank free.
func (m *Machine) fillFreeBits() {
	for b := 0; b < m.cfg.B; b++ {
		base := b * m.freeWords
		for a := 0; a < m.cfg.R; a += 64 {
			if m.cfg.R-a >= 64 {
				m.freeBits[base+a/64] = ^uint64(0)
			} else {
				m.freeBits[base+a/64] = 1<<uint(m.cfg.R-a) - 1
			}
		}
	}
}

// Reset returns the machine to the state NewMachine(cfg, initMem) would
// produce, reusing every allocation: register values may stay stale (all
// valid bits are cleared, and every read is gated by them), the landing
// ring keeps its capacity, and the stats map keeps its buckets. A reset
// machine is observationally identical to a fresh one — the conformance
// suite asserts bit-identical outputs and statistics — which is what
// lets RunOn callers rerun one machine. The only case that allocates is
// an initMem larger than any image the machine has held before.
func (m *Machine) Reset(initMem []float64) {
	for b := 0; b < m.cfg.B; b++ {
		clear(m.valid[b])
	}
	m.fillFreeBits()
	clear(m.occupied)
	for i := range m.ring {
		m.ring[i] = m.ring[i][:0]
	}
	m.cycle = 0
	if cap(m.mem) < len(initMem) {
		m.mem = make([]float64, len(initMem))
	} else {
		m.mem = m.mem[:len(initMem)]
	}
	copy(m.mem, initMem)
	instrs, peak := m.stats.Instrs, m.stats.PeakActive
	clear(instrs)
	clear(peak)
	m.stats = Stats{Instrs: instrs, PeakActive: peak}
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
	if !m.valid[bank][addr] {
		return 0, fmt.Errorf("sim: cycle %d: read of invalid register %d.%d (RAW hazard escaped the compiler)", m.cycle, bank, addr)
	}
	m.stats.RegReads++
	return m.regs[bank][addr], nil
}

func (m *Machine) free(bank, addr int) {
	if m.valid[bank][addr] {
		m.valid[bank][addr] = false
		m.freeBits[bank*m.freeWords+addr/64] |= 1 << uint(addr%64)
		m.occupied[bank]--
	}
}

// allocLowestFree claims and returns the lowest free register address of
// bank — the fig. 5(d) priority-encoder choice — or -1 when the bank is
// full.
func (m *Machine) allocLowestFree(bank int) int {
	base := bank * m.freeWords
	for w := 0; w < m.freeWords; w++ {
		if word := m.freeBits[base+w]; word != 0 {
			t := bits.TrailingZeros64(word)
			m.freeBits[base+w] = word &^ (1 << uint(t))
			return w<<6 | t
		}
	}
	return -1
}

func (m *Machine) scheduleWrite(bank int, v float64, land int) error {
	slot := land % len(m.ring)
	for _, l := range m.ring[slot] {
		if l.bank == bank {
			return fmt.Errorf("sim: cycle %d: two writes land on bank %d at cycle %d", m.cycle, bank, land)
		}
	}
	m.ring[slot] = append(m.ring[slot], landing{bank, v})
	return nil
}

// endCycle applies the writes landing at the current cycle and advances.
func (m *Machine) endCycle() error {
	slot := m.cycle % len(m.ring)
	for _, l := range m.ring[slot] {
		addr := m.allocLowestFree(l.bank)
		if addr < 0 {
			return fmt.Errorf("sim: cycle %d: bank %d overflow", m.cycle, l.bank)
		}
		m.regs[l.bank][addr] = l.val
		m.valid[l.bank][addr] = true
		m.occupied[l.bank]++
		if m.occupied[l.bank] > m.stats.PeakActive[l.bank] {
			m.stats.PeakActive[l.bank] = m.occupied[l.bank]
		}
		m.stats.RegWrites++
	}
	m.ring[slot] = m.ring[slot][:0]
	if m.OccTrace != nil {
		m.OccTrace(m.cycle, m.occupied)
	}
	m.cycle++
	return nil
}

// Run executes the program to completion, including pipeline drain.
func (m *Machine) Run(p *arch.Program) error {
	for i, in := range p.Instrs {
		if err := m.step(in); err != nil {
			return fmt.Errorf("sim: instruction %d (%v): %w", i, in.Kind, err)
		}
	}
	// Drain the pipeline.
	for d := 0; d < m.cfg.D+1; d++ {
		if err := m.endCycle(); err != nil {
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
			if err := m.scheduleWrite(lane, v, m.cycle+1); err != nil {
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
				m.free(b, int(in.ReadAddr[b]))
			}
			if err := m.SetMem(row+b, v); err != nil {
				return err
			}
			m.stats.MemWrites++
		}
	case arch.KindStore4:
		row := in.MemAddr * m.cfg.B
		var seen uint64
		for _, mv := range in.Moves {
			if seen&(1<<uint(mv.SrcBank)) != 0 {
				return fmt.Errorf("two reads of bank %d in one store_4", mv.SrcBank)
			}
			seen |= 1 << uint(mv.SrcBank)
			v, err := m.readReg(int(mv.SrcBank), int(mv.SrcAddr))
			if err != nil {
				return err
			}
			if mv.Rst {
				m.free(int(mv.SrcBank), int(mv.SrcAddr))
			}
			if err := m.SetMem(row+int(mv.Dst), v); err != nil {
				return err
			}
			m.stats.MemWrites++
		}
	case arch.KindCopy:
		var seen uint64
		for _, mv := range in.Moves {
			if seen&(1<<uint(mv.SrcBank)) != 0 {
				return fmt.Errorf("two reads of bank %d in one copy", mv.SrcBank)
			}
			seen |= 1 << uint(mv.SrcBank)
			v, err := m.readReg(int(mv.SrcBank), int(mv.SrcAddr))
			if err != nil {
				return err
			}
			if mv.Rst {
				m.free(int(mv.SrcBank), int(mv.SrcAddr))
			}
			if err := m.scheduleWrite(int(mv.Dst), v, m.cycle+1); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown kind %d", in.Kind)
	}
	return m.endCycle()
}

// exec evaluates the PE trees for one datapath cycle.
func (m *Machine) exec(in *arch.Instr) error {
	cfg := m.cfg
	// Reset the reused scratch liveness flags; the value slices keep
	// stale data, which is never observed because every read is gated by
	// these flags.
	portUsed, port, readBanks := m.portUsed, m.port, m.readBanks
	val, live := m.val, m.live
	for i := range portUsed {
		portUsed[i] = false
	}
	for i := range readBanks {
		readBanks[i] = false
	}
	for i := range live {
		live[i] = false
	}
	// Port values through the input crossbar; a port is live only if a
	// leaf PE consumes it, so reads are demand-driven.
	for id, op := range in.PEOps {
		p := cfg.PECoord(id)
		if p.Layer != 1 || op == arch.PEIdle {
			continue
		}
		l, r := cfg.InputPorts(p)
		switch op {
		case arch.PEAdd, arch.PEMul:
			portUsed[l], portUsed[r] = true, true
		case arch.PEBypassL:
			portUsed[l] = true
		case arch.PEBypassR:
			portUsed[r] = true
		}
	}
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
			m.free(bank, int(in.ReadAddr[bank]))
		}
	}
	// Evaluate layer by layer.
	for l := 1; l <= cfg.D; l++ {
		for t := 0; t < cfg.Trees(); t++ {
			for k := 0; k < cfg.LayerWidth(l); k++ {
				p := arch.PE{Tree: t, Layer: l, Index: k}
				id := cfg.PEID(p)
				op := in.PEOps[id]
				if op == arch.PEIdle {
					continue
				}
				var a, b float64
				var la, lb bool
				if l == 1 {
					pl, pr := cfg.InputPorts(p)
					a, b = port[pl], port[pr]
					la, lb = portUsed[pl], portUsed[pr]
				} else {
					c0, c1, _ := cfg.Children(p)
					i0, i1 := cfg.PEID(c0), cfg.PEID(c1)
					a, b = val[i0], val[i1]
					la, lb = live[i0], live[i1]
				}
				switch op {
				case arch.PEAdd:
					if !la || !lb {
						return fmt.Errorf("PE %d adds a dead operand", id)
					}
					val[id] = a + b
					m.stats.PEOpsDone++
				case arch.PEMul:
					if !la || !lb {
						return fmt.Errorf("PE %d multiplies a dead operand", id)
					}
					val[id] = a * b
					m.stats.PEOpsDone++
				case arch.PEBypassL:
					if !la {
						return fmt.Errorf("PE %d bypasses a dead left operand", id)
					}
					val[id] = a
				case arch.PEBypassR:
					if !lb {
						return fmt.Errorf("PE %d bypasses a dead right operand", id)
					}
					val[id] = b
				}
				live[id] = true
			}
		}
	}
	// Write-backs through the output interconnect.
	for bank := 0; bank < cfg.B; bank++ {
		if !in.WriteEn[bank] {
			continue
		}
		p := cfg.SelPE(bank, in.WriteSel[bank])
		id := cfg.PEID(p)
		if !live[id] {
			return fmt.Errorf("bank %d writes output of idle PE %d", bank, id)
		}
		if err := m.scheduleWrite(bank, val[id], m.cycle+cfg.D); err != nil {
			return err
		}
	}
	return nil
}
