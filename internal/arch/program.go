package arch

import "fmt"

// Program is an executable for one DPU-v2 configuration: the instruction
// list (decoded form) plus the initial data-memory image holding DAG
// inputs and constants. The packed binary is produced by Pack.
type Program struct {
	Cfg    Config
	W      Widths
	Instrs []*Instr
	// InitMem is the initial data memory, word addressed; length is a
	// multiple of Cfg.B (whole rows).
	InitMem []float64
}

// NewProgram returns an empty program for cfg.
func NewProgram(cfg Config) *Program {
	cfg = cfg.Normalize()
	return &Program{Cfg: cfg, W: WidthsOf(cfg)}
}

// Append validates and appends an instruction.
func (p *Program) Append(in *Instr) error {
	if err := in.Validate(p.Cfg); err != nil {
		return err
	}
	p.Instrs = append(p.Instrs, in)
	return nil
}

// BitSize returns the densely packed size of the instruction stream in
// bits (fig. 7(b): variable-length instructions without bubbles).
func (p *Program) BitSize() int {
	total := 0
	for _, in := range p.Instrs {
		total += p.W.Len(in.Kind)
	}
	return total
}

// Counts tallies instructions per kind, the data behind fig. 13.
func (p *Program) Counts() map[Kind]int {
	c := make(map[Kind]int)
	for _, in := range p.Instrs {
		c[in.Kind]++
	}
	return c
}

// Pack encodes the whole instruction stream into its dense binary form.
func (p *Program) Pack() []byte {
	bw := BitWriter{buf: make([]byte, 0, (p.BitSize()+7)/8)}
	for _, in := range p.Instrs {
		Encode(in, p.Cfg, p.W, &bw)
	}
	return bw.Bytes()
}

// Unpack decodes n instructions from a packed stream produced by Pack.
func Unpack(buf []byte, cfg Config, n int) ([]*Instr, error) {
	cfg = cfg.Normalize()
	w := WidthsOf(cfg)
	br := NewBitReader(buf)
	out := make([]*Instr, 0, n)
	for i := 0; i < n; i++ {
		in, err := Decode(br, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("arch: instruction %d: %w", i, err)
		}
		out = append(out, in)
	}
	return out, nil
}

// FixedWriteAddrBits returns the packed size the same program would need
// if write addresses were encoded explicitly instead of generated by the
// banks' valid-bit priority encoders (§III-B). Exec and store drop their
// valid_rst bits but every write port gains a full register address:
// exec and load pay B addresses, copy_4/store_4 pay one per lane.
func (p *Program) FixedWriteAddrBits() int {
	ra := p.W.ReadAddr
	total := 0
	for _, in := range p.Instrs {
		l := p.W.Len(in.Kind)
		switch in.Kind {
		case KindExec:
			l += p.Cfg.B*ra - p.Cfg.B // + write addrs, − valid_rst
		case KindLoad:
			l += p.Cfg.B * ra
		case KindStore:
			l -= p.Cfg.B
		case KindCopy:
			l += MaxMoves*ra - MaxMoves
		case KindStore4:
			l -= MaxMoves
		}
		total += l
	}
	return total
}

// FootprintBytes returns instructions + data-image footprint in bytes at
// 4 bytes per data word, the quantity §IV-E compares against a CSR
// representation.
func (p *Program) FootprintBytes() int {
	return (p.BitSize()+7)/8 + 4*len(p.InitMem)
}
