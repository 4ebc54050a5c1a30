package arch

import (
	"fmt"
	"math/bits"
)

// bitsFor returns the bits needed to represent values in [0, n); n ≤ 1
// needs none.
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Widths holds the per-field and per-instruction bit widths implied by a
// configuration (fig. 7 shows an example set for D=3, B=16, R=32). The
// instruction memory supplies IL bits per cycle — the longest
// instruction — and a shifter aligns the densely packed stream.
type Widths struct {
	Opcode   int // instruction kind
	PEOp     int // one PE configuration
	ReadAddr int // register address within a bank
	BankSel  int // bank index (input crossbar select)
	WriteSel int // output-interconnect select per bank
	MemAddr  int // data-memory row index

	Nop, Exec, Load, Store, Store4, Copy int
	IL                                   int // max over all kinds
}

// WidthsOf computes the encoding geometry for cfg.
func WidthsOf(cfg Config) Widths {
	cfg = cfg.Normalize()
	w := Widths{
		Opcode:   bitsFor(numKinds),
		PEOp:     bitsFor(numPEOps),
		ReadAddr: bitsFor(cfg.R),
		BankSel:  bitsFor(cfg.B),
		MemAddr:  bitsFor(cfg.DataMemWords / cfg.B),
	}
	switch cfg.Output {
	case OutCrossbar:
		w.WriteSel = bitsFor(cfg.NumPEs())
	case OutPerLayer:
		w.WriteSel = bitsFor(cfg.D)
	default:
		w.WriteSel = 0
	}
	perBankRead := 1 + w.ReadAddr // enable + address
	w.Nop = w.Opcode
	w.Exec = w.Opcode +
		cfg.NumPEs()*w.PEOp + // PE configs
		cfg.B*perBankRead + // independent bank reads
		cfg.B + // valid_rst bits
		cfg.B*w.BankSel + // input crossbar selects
		cfg.B*(1+w.WriteSel) // write enable + output select
	w.Load = w.Opcode + w.MemAddr + cfg.B // row + word-enable mask
	w.Store = w.Opcode + w.MemAddr + cfg.B*perBankRead + cfg.B
	lane := 1 + w.BankSel + w.ReadAddr + w.BankSel + 1 // en + src bank + src addr + dst + rst
	w.Store4 = w.Opcode + w.MemAddr + MaxMoves*lane
	w.Copy = w.Opcode + MaxMoves*lane
	w.IL = w.Nop
	for _, l := range []int{w.Exec, w.Load, w.Store, w.Store4, w.Copy} {
		if l > w.IL {
			w.IL = l
		}
	}
	return w
}

// Len returns the packed bit length of kind k.
func (w Widths) Len(k Kind) int {
	switch k {
	case KindNop:
		return w.Nop
	case KindExec:
		return w.Exec
	case KindLoad:
		return w.Load
	case KindStore:
		return w.Store
	case KindStore4:
		return w.Store4
	case KindCopy:
		return w.Copy
	}
	return 0
}

// BitWriter packs little-endian-within-stream bit fields densely, the
// "no bubbles" packing of fig. 7(b).
type BitWriter struct {
	buf  []byte
	nbit int
}

// Put appends the low n bits of v, byte-sized chunks at a time (the
// packed streams of full-scale programs run to megabits, so the codec
// is a measurable slice of artifact decode and program emit).
func (bw *BitWriter) Put(v uint64, n int) {
	for n > 0 {
		bit := bw.nbit & 7
		if bit == 0 {
			bw.buf = append(bw.buf, 0)
		}
		take := 8 - bit
		if take > n {
			take = n
		}
		bw.buf[bw.nbit>>3] |= byte(v&(1<<take-1)) << bit
		v >>= uint(take)
		bw.nbit += take
		n -= take
	}
}

// PutBool appends one bit.
func (bw *BitWriter) PutBool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	bw.Put(v, 1)
}

// Bits returns the number of bits written.
func (bw *BitWriter) Bits() int { return bw.nbit }

// Bytes returns the backing store (last byte possibly partial).
func (bw *BitWriter) Bytes() []byte { return bw.buf }

// BitReader consumes a packed stream produced by BitWriter. Reading past
// the end yields zeros and sets the overrun flag, mirroring an
// instruction-memory fetch of don't-care padding.
type BitReader struct {
	buf     []byte
	pos     int
	Overrun bool
}

// NewBitReader wraps buf for reading from bit offset 0.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// Pos returns the current bit offset.
func (br *BitReader) Pos() int { return br.pos }

// Take reads n bits, byte-sized chunks at a time. Reading past the end
// yields zeros and sets the overrun flag (see BitReader).
func (br *BitReader) Take(n int) uint64 {
	var v uint64
	got := 0
	for got < n {
		byteIdx := br.pos >> 3
		if byteIdx >= len(br.buf) {
			br.Overrun = true
			br.pos += n - got
			break
		}
		bit := br.pos & 7
		take := 8 - bit
		if take > n-got {
			take = n - got
		}
		v |= (uint64(br.buf[byteIdx]>>bit) & (1<<take - 1)) << got
		br.pos += take
		got += take
	}
	return v
}

// TakeBool reads one bit.
func (br *BitReader) TakeBool() bool { return br.Take(1) != 0 }

// Encode appends the packed form of in to bw. The instruction must
// already Validate against cfg.
func Encode(in *Instr, cfg Config, w Widths, bw *BitWriter) {
	bw.Put(uint64(in.Kind), w.Opcode)
	switch in.Kind {
	case KindNop:
	case KindExec:
		for _, op := range in.PEOps {
			bw.Put(uint64(op), w.PEOp)
		}
		for b := 0; b < cfg.B; b++ {
			bw.PutBool(in.ReadEn[b])
			bw.Put(uint64(in.ReadAddr[b]), w.ReadAddr)
		}
		for b := 0; b < cfg.B; b++ {
			bw.PutBool(in.ValidRst[b])
		}
		for b := 0; b < cfg.B; b++ {
			bw.Put(uint64(in.InputSel[b]), w.BankSel)
		}
		for b := 0; b < cfg.B; b++ {
			bw.PutBool(in.WriteEn[b])
			bw.Put(uint64(in.WriteSel[b]), w.WriteSel)
		}
	case KindLoad:
		bw.Put(uint64(in.MemAddr), w.MemAddr)
		for b := 0; b < cfg.B; b++ {
			bw.PutBool(in.Mask[b])
		}
	case KindStore:
		bw.Put(uint64(in.MemAddr), w.MemAddr)
		for b := 0; b < cfg.B; b++ {
			bw.PutBool(in.ReadEn[b])
			bw.Put(uint64(in.ReadAddr[b]), w.ReadAddr)
		}
		for b := 0; b < cfg.B; b++ {
			bw.PutBool(in.ValidRst[b])
		}
	case KindStore4, KindCopy:
		if in.Kind == KindStore4 {
			bw.Put(uint64(in.MemAddr), w.MemAddr)
		}
		for i := 0; i < MaxMoves; i++ {
			if i < len(in.Moves) {
				m := in.Moves[i]
				bw.PutBool(true)
				bw.Put(uint64(m.SrcBank), w.BankSel)
				bw.Put(uint64(m.SrcAddr), w.ReadAddr)
				bw.Put(uint64(m.Dst), w.BankSel)
				bw.PutBool(m.Rst)
			} else {
				bw.PutBool(false)
				bw.Put(0, w.BankSel+w.ReadAddr+w.BankSel+1)
			}
		}
	}
}

// Decode reads one instruction from br. It mirrors the hardware decoder:
// the opcode determines how many further bits belong to the instruction.
func Decode(br *BitReader, cfg Config, w Widths) (*Instr, error) {
	cfg = cfg.Normalize()
	k := Kind(br.Take(w.Opcode))
	in := &Instr{Kind: k}
	switch k {
	case KindNop:
	case KindExec:
		// One backing array per element type: a full-scale program decodes
		// hundreds of thousands of exec instructions, and two allocations
		// in place of six is a measurable slice of artifact decode.
		bools := make([]bool, 3*cfg.B)
		in.ReadEn = bools[:cfg.B:cfg.B]
		in.ValidRst = bools[cfg.B : 2*cfg.B : 2*cfg.B]
		in.WriteEn = bools[2*cfg.B:]
		sels := make([]uint16, 3*cfg.B)
		in.ReadAddr = sels[:cfg.B:cfg.B]
		in.InputSel = sels[cfg.B : 2*cfg.B : 2*cfg.B]
		in.WriteSel = sels[2*cfg.B:]
		in.PEOps = make([]PEOp, cfg.NumPEs())
		for i := range in.PEOps {
			in.PEOps[i] = PEOp(br.Take(w.PEOp))
		}
		for b := 0; b < cfg.B; b++ {
			in.ReadEn[b] = br.TakeBool()
			in.ReadAddr[b] = uint16(br.Take(w.ReadAddr))
		}
		for b := 0; b < cfg.B; b++ {
			in.ValidRst[b] = br.TakeBool()
		}
		for b := 0; b < cfg.B; b++ {
			in.InputSel[b] = uint16(br.Take(w.BankSel))
		}
		for b := 0; b < cfg.B; b++ {
			in.WriteEn[b] = br.TakeBool()
			in.WriteSel[b] = uint16(br.Take(w.WriteSel))
		}
	case KindLoad:
		in.MemAddr = int(br.Take(w.MemAddr))
		in.Mask = make([]bool, cfg.B)
		for b := 0; b < cfg.B; b++ {
			in.Mask[b] = br.TakeBool()
		}
	case KindStore:
		in.MemAddr = int(br.Take(w.MemAddr))
		bools := make([]bool, 2*cfg.B)
		in.ReadEn = bools[:cfg.B:cfg.B]
		in.ValidRst = bools[cfg.B:]
		in.ReadAddr = make([]uint16, cfg.B)
		for b := 0; b < cfg.B; b++ {
			in.ReadEn[b] = br.TakeBool()
			in.ReadAddr[b] = uint16(br.Take(w.ReadAddr))
		}
		for b := 0; b < cfg.B; b++ {
			in.ValidRst[b] = br.TakeBool()
		}
	case KindStore4, KindCopy:
		if k == KindStore4 {
			in.MemAddr = int(br.Take(w.MemAddr))
		}
		for i := 0; i < MaxMoves; i++ {
			en := br.TakeBool()
			m := Move{
				SrcBank: uint16(br.Take(w.BankSel)),
				SrcAddr: uint16(br.Take(w.ReadAddr)),
				Dst:     uint16(br.Take(w.BankSel)),
				Rst:     br.TakeBool(),
			}
			if en {
				in.Moves = append(in.Moves, m)
			}
		}
	default:
		return nil, fmt.Errorf("arch: decoded unknown opcode %d", k)
	}
	if br.Overrun {
		return nil, fmt.Errorf("arch: instruction stream truncated")
	}
	return in, nil
}
