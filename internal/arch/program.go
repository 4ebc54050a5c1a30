package arch

import "fmt"

// Program is an executable for one DPU-v2 configuration: the instruction
// list (decoded form) plus the initial data-memory image holding DAG
// inputs and constants. The packed binary is produced by Pack.
type Program struct {
	// Cfg is normalized (Config.Normalize): NewProgram and Unpack fill
	// its defaults, so a reader of a program's config need not.
	Cfg    Config
	W      Widths
	Instrs []Instr
	// InitMem is the initial data memory, word addressed; length is a
	// multiple of Cfg.B (whole rows).
	InitMem []float64
}

// NewProgram returns an empty program for cfg.
func NewProgram(cfg Config) *Program {
	cfg = cfg.Normalize()
	return &Program{Cfg: cfg, W: WidthsOf(cfg)}
}

// BitSize returns the densely packed size of the instruction stream in
// bits (fig. 7(b): variable-length instructions without bubbles).
func (p *Program) BitSize() int {
	total := 0
	for i := range p.Instrs {
		total += p.W.Len(p.Instrs[i].Kind)
	}
	return total
}

// Counts tallies instructions per kind, the data behind fig. 13; an
// instruction of a kind outside the ISA counts under none.
func (p *Program) Counts() [numKinds]int {
	var c [numKinds]int
	for i := range p.Instrs {
		if k := p.Instrs[i].Kind; k < numKinds {
			c[k]++
		}
	}
	return c
}

// Pack encodes the whole instruction stream into its dense binary form.
func (p *Program) Pack() []byte {
	bw := BitWriter{buf: make([]byte, 0, (p.BitSize()+7)/8)}
	for i := range p.Instrs {
		Encode(&p.Instrs[i], p.W, &bw)
	}
	return bw.Bytes()
}

// Unpack decodes a program of cfg from the first n instructions of a
// stream packed by Pack, each validated. Every kind has a fixed length
// (Widths.Len), so a scan of the opcodes counts the instructions of each
// kind first, and the decode then fills a Builder sized to them. The
// scan fails as soon as it runs past buf, so a count buf cannot hold
// costs no more than buf's length and allocates nothing.
func Unpack(buf []byte, cfg Config, n int) (*Program, error) {
	cfg = cfg.Normalize()
	w := WidthsOf(cfg)
	var count [numKinds]int
	br := NewBitReader(buf)
	for i := 0; i < n; i++ {
		k := Kind(br.Take(w.Opcode))
		if k >= numKinds {
			return nil, fmt.Errorf("arch: instruction %d: unknown opcode %d", i, k)
		}
		if br.pos += w.Len(k) - w.Opcode; br.pos > 8*len(buf) {
			return nil, fmt.Errorf("arch: instruction %d: stream truncated", i)
		}
		count[k]++
	}
	var b Builder
	b.Reset(cfg, n, count[KindExec], count[KindLoad], count[KindStore], MaxMoves*(count[KindCopy]+count[KindStore4]))
	br = NewBitReader(buf)
	for range n {
		b.decode(br, cfg, w)
	}
	return b.Program(cfg)
}

// FixedWriteAddrBits returns the packed size the same program would need
// if write addresses were encoded explicitly instead of generated by the
// banks' valid-bit priority encoders (§III-B). Exec and store drop their
// valid_rst bits but every write port gains a full register address:
// exec and load pay B addresses, copy_4/store_4 pay one per lane.
func (p *Program) FixedWriteAddrBits() int {
	c, b, ra := p.Counts(), p.Cfg.B, p.W.ReadAddr
	return p.BitSize() + c[KindExec]*(b*ra-b) + c[KindLoad]*b*ra - c[KindStore]*b +
		c[KindCopy]*(MaxMoves*ra-MaxMoves) - c[KindStore4]*MaxMoves
}

// FootprintBytes returns instructions + data-image footprint in bytes at
// 4 bytes per data word, the quantity §IV-E compares against a CSR
// representation.
func (p *Program) FootprintBytes() int {
	return (p.BitSize()+7)/8 + 4*len(p.InitMem)
}
