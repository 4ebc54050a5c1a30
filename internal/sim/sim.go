// Package sim is the cycle-accurate functional simulator of the DPU-v2
// architecture template, standing in for the paper's SystemVerilog RTL
// model (see DESIGN.md). It executes the decoded instruction stream on
// regfile.Walker, the micro-timing contract the compiler plans against
// and the verifier proves programs against.
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
// program. All of it is a function of the instruction stream alone (see
// StaticStats).
type Stats struct {
	Cycles    int
	PEOpsDone int // arithmetic PE operations (add/mul), including replicas
	RegReads  int
	RegWrites int
	MemReads  int // words read from data memory
	MemWrites int // words written to data memory
}

// Machine is the architectural state of one DPU-v2 core. The register
// file, the landing pipeline and the issue semantics are a
// regfile.Walker carrying float64 values; the machine adds the data
// memory, the activity counts and its strict fault policy.
type Machine struct {
	cfg   arch.Config
	walk  *regfile.Walker[float64]
	mem   []float64
	stats Stats
}

// NewMachine builds a machine for cfg with the given initial data-memory
// image (padded to whole rows; the memory can grow up to cfg.DataMemWords
// through stores).
func NewMachine(cfg arch.Config, initMem []float64) *Machine {
	cfg = cfg.Normalize()
	m := &Machine{cfg: cfg, mem: make([]float64, len(initMem))}
	copy(m.mem, initMem)
	m.walk = regfile.NewWalker[float64](cfg, (*semantics)(m))
	return m
}

// reset returns m to the state NewMachine(m.cfg, initMem) builds,
// reusing its allocations.
func (m *Machine) reset(initMem []float64) {
	m.mem = append(m.mem[:0], initMem...)
	m.stats = Stats{}
	m.walk.Reset()
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
func (m *Machine) Stats() Stats {
	st := m.stats
	st.RegReads, st.RegWrites = m.walk.Traffic()
	return st
}

// Run executes the program to completion, including pipeline drain; its
// instructions must pass arch.Instr.Validate, as those of every program
// an arch.Builder built or that verifies clean do. A machine runs once:
// its register file, landing ring, memory and statistics are those the
// program left, so a second Run is an error — build a new machine (or
// call the package-level Run) per execution.
func (m *Machine) Run(p *arch.Program) error {
	if c := m.walk.Cycle(); c != 0 {
		return fmt.Errorf("sim: machine has already run %d cycles; build a new one per execution", c)
	}
	for i := range p.Instrs {
		if err := m.walk.Step(&p.Instrs[i]); err != nil {
			return fmt.Errorf("sim: instruction %d (%v): %w", i, p.Instrs[i].Kind, err)
		}
	}
	if err := m.walk.Drain(); err != nil {
		return err
	}
	m.stats.Cycles = m.walk.Cycle()
	return nil
}

// semantics is the Machine as its walker sees it: float64 arithmetic,
// the data memory, and every hazard but a dead valid_rst a fault.
type semantics Machine

func (s *semantics) Op(op arch.PEOp, l, r float64) float64 {
	switch op {
	case arch.PEAdd:
		s.stats.PEOpsDone++
		return l + r
	case arch.PEMul:
		s.stats.PEOpsDone++
		return l * r
	case arch.PEBypassR:
		return r
	}
	return l
}

func (s *semantics) Load(addr int) (float64, error) {
	s.stats.MemReads++
	return (*Machine)(s).Mem(addr)
}

func (s *semantics) Store(addr int, v float64) error {
	s.stats.MemWrites++
	return (*Machine)(s).SetMem(addr, v)
}

func (s *semantics) Hazard(h regfile.Hazard[float64]) error {
	if h.Kind == regfile.DeadReset {
		return nil
	}
	return fmt.Errorf("sim: cycle %d: %s", s.walk.Cycle(), h.Msg)
}
