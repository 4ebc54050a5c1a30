package arch

import "fmt"

// Kind is the instruction class of fig. 7.
type Kind uint8

const (
	// KindNop advances the pipeline one cycle without side effects; the
	// compiler inserts nops for unresolvable RAW hazards (step 3).
	KindNop Kind = iota
	// KindExec configures every PE and register bank for one datapath
	// cycle: per-bank reads, input-crossbar routing, PE ops, and
	// per-bank write-backs through the output interconnect.
	KindExec
	// KindCopy moves up to 4 words between banks through the input
	// crossbar (fig. 5(c)); the compiler uses it to repair bank
	// conflicts. Destination addresses are chosen by the banks'
	// automatic write-address generators.
	KindCopy
	// KindLoad transfers one data-memory row (B words, word-enable
	// masked) into the banks; bank i receives lane i (fig. 5(b)).
	KindLoad
	// KindStore writes one full vector from the banks to a data-memory
	// row; per-bank read addresses are encoded in the instruction.
	KindStore
	// KindStore4 stores up to 4 words gathered from arbitrary banks into
	// arbitrary lanes of a memory row.
	KindStore4

	numKinds = 6
)

func (k Kind) String() string {
	switch k {
	case KindNop:
		return "nop"
	case KindExec:
		return "exec"
	case KindCopy:
		return "copy_4"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindStore4:
		return "store_4"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PEOp configures one PE for an exec cycle.
type PEOp uint8

const (
	// PEIdle leaves the PE output undefined (nothing may consume it).
	PEIdle PEOp = iota
	// PEAdd outputs left+right.
	PEAdd
	// PEMul outputs left×right.
	PEMul
	// PEBypassL forwards the left operand.
	PEBypassL
	// PEBypassR forwards the right operand.
	PEBypassR

	numPEOps = 5
)

func (op PEOp) String() string {
	switch op {
	case PEIdle:
		return "idle"
	case PEAdd:
		return "add"
	case PEMul:
		return "mul"
	case PEBypassL:
		return "bypl"
	case PEBypassR:
		return "bypr"
	}
	return fmt.Sprintf("peop(%d)", uint8(op))
}

// Operands reports which of its two inputs op consumes.
func (op PEOp) Operands() (left, right bool) {
	switch op {
	case PEAdd, PEMul:
		return true, true
	case PEBypassL:
		return true, false
	case PEBypassR:
		return false, true
	}
	return false, false
}

// Move is one lane of a copy_4 or store_4 instruction: read (SrcBank,
// SrcAddr) and deliver it to Dst — a destination bank for copies (write
// address auto-generated) or a memory lane for store_4.
type Move struct {
	SrcBank uint16
	SrcAddr uint16
	Dst     uint16
	// Rst releases the source register (valid_rst) after the read.
	Rst bool
}

// MaxMoves is the lane count of copy_4/store_4.
const MaxMoves = 4

// Instr is the decoded form of one instruction. Which fields are
// meaningful depends on Kind; Encode/Decode define the packed layout.
//
// All per-bank slices have length B and all per-PE slices length NumPEs
// when present.
type Instr struct {
	Kind Kind

	// Exec fields.
	PEOps    []PEOp   // PE configuration, indexed by PEID
	ReadEn   []bool   // bank read enables
	ReadAddr []uint16 // bank read addresses
	ValidRst []bool   // release the bank's read register after this read
	InputSel []uint16 // input-crossbar select: bank feeding each port
	WriteEn  []bool   // bank write enables
	WriteSel []uint16 // output-interconnect select per bank (see Config.WriteSel)

	// Load/Store/Store4 fields.
	MemAddr int
	Mask    []bool // load word-enable per lane

	// Store reuses ReadEn/ReadAddr/ValidRst for the vector gather.

	// Copy/Store4 lanes.
	Moves []Move
}

// Validate checks the instruction against the configuration: slice
// lengths, address ranges, interconnect legality and lane limits.
func (in *Instr) Validate(cfg Config) error {
	checkLen := func(name string, got, want int) error {
		if got != want {
			return fmt.Errorf("arch: %s %s length %d, want %d", in.Kind, name, got, want)
		}
		return nil
	}
	switch in.Kind {
	case KindNop:
		return nil
	case KindExec:
		if err := checkLen("PEOps", len(in.PEOps), cfg.NumPEs()); err != nil {
			return err
		}
		for id, op := range in.PEOps {
			if op >= numPEOps {
				return fmt.Errorf("arch: exec PE %d opcode %d outside the ISA", id, op)
			}
		}
		for _, s := range [][2]int{{len(in.ReadEn), cfg.B}, {len(in.ReadAddr), cfg.B},
			{len(in.ValidRst), cfg.B}, {len(in.InputSel), cfg.B}, {len(in.WriteEn), cfg.B}, {len(in.WriteSel), cfg.B}} {
			if s[0] != s[1] {
				return fmt.Errorf("arch: exec per-bank slice length %d, want %d", s[0], s[1])
			}
		}
		for b := 0; b < cfg.B; b++ {
			if in.ReadEn[b] && int(in.ReadAddr[b]) >= cfg.R {
				return fmt.Errorf("arch: exec read addr %d ≥ R=%d on bank %d", in.ReadAddr[b], cfg.R, b)
			}
			if int(in.InputSel[b]) >= cfg.B {
				return fmt.Errorf("arch: exec input select %d ≥ B on port %d", in.InputSel[b], b)
			}
			if in.WriteEn[b] {
				// Bound the select before decoding it: under the crossbar a
				// decoded select can name any value its bit width admits, and
				// SelPE on an id ≥ NumPEs would address a nonexistent PE.
				if cfg.Output == OutCrossbar && int(in.WriteSel[b]) >= cfg.NumPEs() {
					return fmt.Errorf("arch: exec write select %d ≥ %d PEs on bank %d", in.WriteSel[b], cfg.NumPEs(), b)
				}
				p := cfg.SelPE(b, in.WriteSel[b])
				if !cfg.CanWrite(p, b) {
					return fmt.Errorf("arch: exec write select %d illegal for bank %d", in.WriteSel[b], b)
				}
			}
		}
		return nil
	case KindLoad:
		if err := checkLen("Mask", len(in.Mask), cfg.B); err != nil {
			return err
		}
		if in.MemAddr < 0 || in.MemAddr >= cfg.DataMemWords/cfg.B {
			return fmt.Errorf("arch: load row %d out of range", in.MemAddr)
		}
		return nil
	case KindStore:
		for _, s := range [][2]int{{len(in.ReadEn), cfg.B}, {len(in.ReadAddr), cfg.B}, {len(in.ValidRst), cfg.B}} {
			if s[0] != s[1] {
				return fmt.Errorf("arch: store per-bank slice length %d, want %d", s[0], s[1])
			}
		}
		if in.MemAddr < 0 || in.MemAddr >= cfg.DataMemWords/cfg.B {
			return fmt.Errorf("arch: store row %d out of range", in.MemAddr)
		}
		for b := 0; b < cfg.B; b++ {
			if in.ReadEn[b] && int(in.ReadAddr[b]) >= cfg.R {
				return fmt.Errorf("arch: store read addr %d ≥ R on bank %d", in.ReadAddr[b], b)
			}
		}
		return nil
	case KindCopy, KindStore4:
		if len(in.Moves) == 0 || len(in.Moves) > MaxMoves {
			return fmt.Errorf("arch: %s with %d lanes, want 1..%d", in.Kind, len(in.Moves), MaxMoves)
		}
		if in.Kind == KindStore4 && (in.MemAddr < 0 || in.MemAddr >= cfg.DataMemWords/cfg.B) {
			return fmt.Errorf("arch: store_4 row %d out of range", in.MemAddr)
		}
		for _, m := range in.Moves {
			if int(m.SrcBank) >= cfg.B || int(m.SrcAddr) >= cfg.R || int(m.Dst) >= cfg.B {
				return fmt.Errorf("arch: %s lane out of range: %+v", in.Kind, m)
			}
		}
		return nil
	}
	return fmt.Errorf("arch: unknown kind %d", in.Kind)
}
