// Package arch defines the DPU-v2 architecture template of §III: the
// parameterized datapath of PE trees, the banked register file with
// automatic write-address generation, the input/output interconnect
// topologies of fig. 6, and the variable-length VLIW instruction set of
// fig. 7 including its dense bit-packed encoding.
//
// The template has three free parameters: tree depth D, bank count B and
// registers per bank R. The number of trees T = B/2^D follows from the
// requirement that the register file can feed every tree input each cycle.
package arch

import "fmt"

// OutputTopology selects the PE-output → register-bank interconnect of
// fig. 6. The input interconnect is a full crossbar in every design.
// Fig. 6(d), which also removes the input crossbar, is not modeled: the
// paper rejects it, and no program could be compiled for it.
type OutputTopology uint8

const (
	// OutPerLayer is fig. 6(b), the design DPU-v2 selects: each bank is
	// writable from exactly one PE per tree layer.
	OutPerLayer OutputTopology = iota
	// OutCrossbar is fig. 6(a): every PE can write every bank.
	OutCrossbar
	// OutPerPE is fig. 6(c): each bank is writable from exactly one PE
	// (the root's bank group reaches only the root).
	OutPerPE
)

func (o OutputTopology) String() string {
	switch o {
	case OutPerLayer:
		return "per-layer"
	case OutCrossbar:
		return "crossbar"
	case OutPerPE:
		return "per-pe"
	}
	return fmt.Sprintf("topology(%d)", uint8(o))
}

// Config is one instantiation of the architecture template.
type Config struct {
	// D is the number of PE layers per tree (pipeline has D+1 stages).
	D int
	// B is the number of register banks (= datapath input ports).
	B int
	// R is the number of registers per bank.
	R int
	// Output selects the output interconnect topology. Its zero value is
	// OutPerLayer, the paper's choice; a config names it only to select
	// the crossbar or per-PE alternatives.
	Output OutputTopology
	// DataMemWords is the capacity of the on-chip data memory in words.
	// Zero means the 256K-word default (1 MB at 4 B/word), enough to hold
	// inputs, results and spill slots for the full-scale Table I suites.
	DataMemWords int
}

// Normalize fills defaulted fields and returns the completed config.
func (c Config) Normalize() Config {
	if c.DataMemWords == 0 {
		c.DataMemWords = 1 << 18
	}
	return c
}

// Validate checks that the parameters describe a constructible design.
func (c Config) Validate() error {
	if c.D < 1 || c.D > 6 {
		return fmt.Errorf("arch: D=%d out of supported range [1,6]", c.D)
	}
	if c.B < 1<<c.D {
		return fmt.Errorf("arch: B=%d smaller than one tree's input count 2^D=%d", c.B, 1<<c.D)
	}
	if c.B%(1<<c.D) != 0 {
		return fmt.Errorf("arch: B=%d not a multiple of 2^D=%d", c.B, 1<<c.D)
	}
	if c.R < 2 {
		return fmt.Errorf("arch: R=%d too small", c.R)
	}
	if c.Output > OutPerPE {
		return fmt.Errorf("arch: unknown output topology %d", c.Output)
	}
	return nil
}

// Machine-size bounds, checked by CheckBounds.
const (
	maxB        = 1 << 10
	maxR        = 1 << 12
	maxMemWords = 1 << 24 // 128 MB of float64
)

// CheckBounds rejects a config whose machine state would be
// unreasonably large, before anything is allocated for it. Validate
// checks constructibility, not size: every instruction carries B-wide
// control fields, and a machine for the config holds B·R float64
// registers plus DataMemWords words, so an unbounded config would OOM
// whoever decodes, verifies, compiles or simulates it. The serving
// handler, the artifact encoder and decoder and the verifier all apply
// this one bound. It comfortably covers every configuration of the
// paper (DPU-v2 (L) is B=64, R=256, 4M-word memory).
func (c Config) CheckBounds() error {
	if c.B > maxB || c.R > maxR {
		return fmt.Errorf("arch: register file %dx%d exceeds the machine-size limit %dx%d", c.B, c.R, maxB, maxR)
	}
	if c.DataMemWords > maxMemWords {
		return fmt.Errorf("arch: data memory %d words exceeds the machine-size limit %d", c.DataMemWords, maxMemWords)
	}
	return nil
}

// Trees returns T = B / 2^D, the number of parallel PE trees.
func (c Config) Trees() int { return c.B >> uint(c.D) }

// NumPEs returns T·(2^D − 1), the total PE count.
func (c Config) NumPEs() int { return c.Trees() * ((1 << uint(c.D)) - 1) }

// TreeInputs returns 2^D, the leaf input ports of one tree.
func (c Config) TreeInputs() int { return 1 << uint(c.D) }

// WriteLatency returns when the register writes of an instruction of
// kind k land: at the end of cycle issue+WriteLatency, readable from the
// cycle after. An exec's results leave its trees D cycles after issue; a
// load or copy_4 writes at issue+1. Other kinds write no register and
// return 0.
func (c Config) WriteLatency(k Kind) int {
	switch k {
	case KindExec:
		return c.D
	case KindLoad, KindCopy:
		return 1
	}
	return 0
}

// Drain returns the cycles the D+1-stage pipeline runs after the last
// instruction issues, until every write in flight has landed: a program
// of n instructions takes n+Drain() cycles.
func (c Config) Drain() int { return c.D + 1 }

// MinEDP returns the design-space point the paper's exploration selects
// (D=3, B=64, R=32, per-layer output interconnect).
func MinEDP() Config {
	return Config{D: 3, B: 64, R: 32}.Normalize()
}

// MinEnergy returns the paper's minimum-energy point (D=3, B=16, R=64).
func MinEnergy() Config {
	return Config{D: 3, B: 16, R: 64}.Normalize()
}

// MinLatency returns the paper's minimum-latency point (D=3, B=64, R=128).
func MinLatency() Config {
	return Config{D: 3, B: 64, R: 128}.Normalize()
}

// Large returns the DPU-v2 (L) configuration used for the large-PC
// comparison (§V-C2): min-EDP datapath with 256 registers per bank and a
// larger data memory (4M words) backing the multi-million-node PCs.
func Large() Config {
	return Config{D: 3, B: 64, R: 256, DataMemWords: 1 << 22}.Normalize()
}

// String renders the config like the paper's "D, B, R" tuples.
func (c Config) String() string {
	return fmt.Sprintf("D=%d,B=%d,R=%d,%s", c.D, c.B, c.R, c.Output)
}
