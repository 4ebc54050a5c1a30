// Package energy models area, power, energy and energy-delay product of
// DPU-v2 configurations. It stands in for the paper's 28nm gate-level
// synthesis with switching-activity annotation (see DESIGN.md): every
// component is anchored to the published Table II breakdown at the
// min-EDP point (D=3, B=64, R=32, 300 MHz) and scaled with first-order
// structural laws, with dynamic power additionally modulated by the
// activity factors the simulator measures (PE utilization, register and
// memory traffic per cycle).
package energy

import (
	"dpuv2/internal/arch"
	"dpuv2/internal/sim"
)

// Component identifies one row of Table II.
type Component int

const (
	PEs Component = iota
	PipeRegs
	InputXbar
	OutputXbar
	RFBanks
	WrAddrGen
	InstrFetch
	Decode
	CtrlPipeRegs
	InstrMem
	DataMem
	numComponents
)

var componentNames = [numComponents]string{
	"PEs", "Pipelining registers", "Input interconnect", "Output interconnect",
	"Register file banks", "Wr addr generator", "Instr fetch", "Decode",
	"Ctrl pipelining registers", "Instruction memory", "Data memory",
}

// Name returns the Table II row label.
func (c Component) Name() string { return componentNames[c] }

// Table II reference values at the min-EDP design (28nm, 300 MHz).
var (
	refAreaMM2 = [numComponents]float64{0.13, 0.04, 0.14, 0.01, 0.35, 0.03, 0.06, 0.04, 0.01, 1.20, 1.20}
	refPowerMW = [numComponents]float64{11.9, 8.0, 10.0, 0.5, 24.0, 7.8, 7.0, 2.6, 2.7, 27.7, 6.7}
)

// ClockMHz is the clock every configuration runs at: the paper's 28nm
// synthesis target behind Table II. It scales the model's time, not the
// program, so it is no part of a configuration.
const ClockMHz = 300

// refCfg is the anchor configuration for the scaling laws.
var refCfg = arch.MinEDP()

// leakFrac is the assumed static fraction of each component's reference
// power; the rest scales with activity.
const leakFrac = 0.35

// Breakdown is the modeled area and power of one configuration, by
// component, at the reference activity (used for Table II) — plus totals.
type Breakdown struct {
	Cfg     arch.Config
	AreaMM2 [numComponents]float64
	PowerMW [numComponents]float64
}

// TotalArea sums the component areas (mm²).
func (b *Breakdown) TotalArea() float64 {
	t := 0.0
	for _, a := range b.AreaMM2 {
		t += a
	}
	return t
}

// TotalPower sums the component powers (mW).
func (b *Breakdown) TotalPower() float64 {
	t := 0.0
	for _, p := range b.PowerMW {
		t += p
	}
	return t
}

// Components returns the number of modeled components.
func Components() int { return int(numComponents) }

// scale returns the structural area scale factor of component c when
// moving from the reference configuration to cfg.
func scale(c Component, cfg arch.Config) float64 {
	w := arch.WidthsOf(cfg)
	w0 := arch.WidthsOf(refCfg)
	fb := float64(cfg.B) / float64(refCfg.B)
	switch c {
	case PEs, PipeRegs:
		return float64(cfg.NumPEs()) / float64(refCfg.NumPEs())
	case InputXbar:
		return fb * fb // B×B crossbar wiring
	case OutputXbar:
		return fb * float64(cfg.D) / float64(refCfg.D)
	case RFBanks, WrAddrGen:
		return float64(cfg.B*cfg.R) / float64(refCfg.B*refCfg.R)
	case InstrFetch, Decode:
		return float64(w.IL) / float64(w0.IL)
	case CtrlPipeRegs:
		return float64(w.IL*cfg.D) / float64(w0.IL*refCfg.D)
	case InstrMem:
		// Capacity held constant across the sweep; the read datapath
		// widens with IL.
		return 0.5 + 0.5*float64(w.IL)/float64(w0.IL)
	case DataMem:
		// Capacity constant; the row width (B words) scales the banking.
		return 0.5 + 0.5*fb
	}
	return 1
}

// Model computes the static breakdown for cfg (reference activity), the
// Table II reproduction when cfg is the min-EDP point.
func Model(cfg arch.Config) *Breakdown {
	cfg = cfg.Normalize()
	b := &Breakdown{Cfg: cfg}
	for c := Component(0); c < numComponents; c++ {
		s := scale(c, cfg)
		b.AreaMM2[c] = refAreaMM2[c] * s
		b.PowerMW[c] = refPowerMW[c] * s
	}
	return b
}

// Activity captures how busy each structure was during a run; derived
// from simulator statistics.
type Activity struct {
	// PEUtil is arithmetic PE ops per PE per cycle.
	PEUtil float64
	// RegTraffic is register reads+writes per bank per cycle.
	RegTraffic float64
	// MemTraffic is data-memory words moved per cycle, normalized to B.
	MemTraffic float64
	// FetchRate is instruction bits consumed per cycle relative to IL
	// (dense packing makes short instructions cheaper).
	FetchRate float64
}

// refActivity is the activity the Table II power numbers correspond to:
// measured on the benchmark suites at the min-EDP design.
var refActivity = Activity{PEUtil: 0.55, RegTraffic: 0.45, MemTraffic: 0.08, FetchRate: 0.75}

// ActivityOf derives activity factors from a simulation.
func ActivityOf(cfg arch.Config, st sim.Stats, prog *arch.Program) Activity {
	cyc := float64(st.Cycles)
	if cyc == 0 {
		cyc = 1
	}
	a := Activity{
		PEUtil:     float64(st.PEOpsDone) / (cyc * float64(cfg.NumPEs())),
		RegTraffic: float64(st.RegReads+st.RegWrites) / (cyc * float64(cfg.B)),
		MemTraffic: float64(st.MemReads+st.MemWrites) / (cyc * float64(cfg.B)),
	}
	if prog != nil {
		w := arch.WidthsOf(cfg)
		a.FetchRate = float64(prog.BitSize()) / (cyc * float64(w.IL))
	} else {
		a.FetchRate = refActivity.FetchRate
	}
	return a
}

// activityFactor returns the dynamic-power multiplier of component c for
// the given activity relative to the reference activity.
func activityFactor(c Component, a Activity) float64 {
	ratio := func(x, ref float64) float64 {
		if ref <= 0 {
			return 1
		}
		r := x / ref
		if r < 0 {
			return 0
		}
		return r
	}
	switch c {
	case PEs, PipeRegs:
		return ratio(a.PEUtil, refActivity.PEUtil)
	case InputXbar, OutputXbar, RFBanks, WrAddrGen:
		return ratio(a.RegTraffic, refActivity.RegTraffic)
	case DataMem:
		return ratio(a.MemTraffic, refActivity.MemTraffic)
	case InstrFetch, Decode, CtrlPipeRegs, InstrMem:
		return ratio(a.FetchRate, refActivity.FetchRate)
	}
	return 1
}

// Estimate is the modeled outcome of one workload execution on one
// configuration.
type Estimate struct {
	Ops           int // DAG arithmetic nodes executed
	Cycles        int
	LatencyPerOp  float64 // ns
	PowerMW       float64
	EnergyPerOp   float64 // pJ
	EDP           float64 // pJ·ns per op
	AreaMM2       float64
	ThroughputGOP float64 // operations per second / 1e9
}

// Estimate combines simulator statistics with the component model.
// ops is the number of DAG arithmetic operations (the paper's "OPS").
func EstimateRun(cfg arch.Config, ops int, st sim.Stats, prog *arch.Program) Estimate {
	b := Model(cfg)
	act := ActivityOf(cfg, st, prog)
	power := 0.0
	for c := Component(0); c < numComponents; c++ {
		p := b.PowerMW[c]
		power += p*leakFrac + p*(1-leakFrac)*activityFactor(c, act)
	}
	tclkNS := 1e3 / ClockMHz
	lat := float64(st.Cycles) * tclkNS
	e := Estimate{
		Ops:     ops,
		Cycles:  st.Cycles,
		PowerMW: power,
		AreaMM2: b.TotalArea(),
	}
	if ops > 0 {
		e.LatencyPerOp = lat / float64(ops)
		// 1 mW × 1 ns = 10⁻³ J/s × 10⁻⁹ s = 10⁻¹² J = 1 pJ exactly.
		e.EnergyPerOp = power * e.LatencyPerOp
		e.EDP = e.EnergyPerOp * e.LatencyPerOp
		e.ThroughputGOP = float64(ops) / lat
	}
	return e
}
