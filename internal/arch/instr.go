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

// BankCtl is one bank's control in an exec or a store (fig. 7). Both
// give every bank the same read port: ReadEn, ReadAddr and ValidRst,
// which releases the register after the read. Exec also routes bank
// InputSel to crossbar port b (entry b) and writes the bank back
// through the output interconnect (WriteEn, WriteSel; see
// Config.WriteSel). A store encodes only the read port, so the rest
// stays zero.
type BankCtl struct {
	ReadAddr, InputSel, WriteSel uint16
	ReadEn, ValidRst, WriteEn    bool
}

// Instr is the decoded form of one instruction. Which fields are
// meaningful depends on Kind; Encode and Unpack define the packed
// layout. Banks and Mask have length B and PEOps length NumPEs when
// present.
type Instr struct {
	Kind    Kind
	MemAddr int       // data-memory row of load, store and store_4
	PEOps   []PEOp    // exec PE configuration, indexed by PEID
	Banks   []BankCtl // exec and store per-bank control
	Mask    []bool    // load word-enable per lane
	Moves   []Move    // copy_4 and store_4 lanes
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
	case KindLoad, KindStore, KindStore4:
		if in.MemAddr < 0 || in.MemAddr >= cfg.DataMemWords/cfg.B {
			return fmt.Errorf("arch: %s row %d out of range", in.Kind, in.MemAddr)
		}
	}
	switch in.Kind {
	case KindNop:
		return nil
	case KindLoad:
		return checkLen("Mask", len(in.Mask), cfg.B)
	case KindCopy, KindStore4:
		if len(in.Moves) == 0 || len(in.Moves) > MaxMoves {
			return fmt.Errorf("arch: %s with %d lanes, want 1..%d", in.Kind, len(in.Moves), MaxMoves)
		}
		for _, m := range in.Moves {
			if int(m.SrcBank) >= cfg.B || int(m.SrcAddr) >= cfg.R || int(m.Dst) >= cfg.B {
				return fmt.Errorf("arch: %s lane out of range: %+v", in.Kind, m)
			}
		}
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
	case KindStore:
	default:
		return fmt.Errorf("arch: unknown kind %d", in.Kind)
	}
	// Exec and store: every bank's read port, and exec's crossbar select
	// and write port.
	if err := checkLen("Banks", len(in.Banks), cfg.B); err != nil {
		return err
	}
	for b, bc := range in.Banks {
		if bc.ReadEn && int(bc.ReadAddr) >= cfg.R {
			return fmt.Errorf("arch: %s read addr %d ≥ R=%d on bank %d", in.Kind, bc.ReadAddr, cfg.R, b)
		}
		if in.Kind == KindStore {
			if bc.InputSel != 0 || bc.WriteEn || bc.WriteSel != 0 {
				return fmt.Errorf("arch: store sets exec-only control on bank %d", b)
			}
			continue
		}
		if int(bc.InputSel) >= cfg.B {
			return fmt.Errorf("arch: exec input select %d ≥ B on port %d", bc.InputSel, b)
		}
		if bc.WriteEn {
			// Bound the select before decoding it: under the crossbar a
			// decoded select can name any value its bit width admits, and
			// SelPE on an id ≥ NumPEs would address a nonexistent PE.
			if cfg.Output == OutCrossbar && int(bc.WriteSel) >= cfg.NumPEs() {
				return fmt.Errorf("arch: exec write select %d ≥ %d PEs on bank %d", bc.WriteSel, cfg.NumPEs(), b)
			}
			if !cfg.CanWrite(cfg.SelPE(b, bc.WriteSel), b) {
				return fmt.Errorf("arch: exec write select %d illegal for bank %d", bc.WriteSel, b)
			}
		}
	}
	return nil
}
