package arch

import "math/bits"

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

// Bytes returns the backing store (last byte possibly partial).
func (bw *BitWriter) Bytes() []byte { return bw.buf }

// BitReader consumes a packed stream produced by BitWriter. Reading past
// the end yields zeros, mirroring an instruction-memory fetch of
// don't-care padding; Unpack checks the position against the length.
type BitReader struct {
	buf []byte
	pos int
}

// NewBitReader wraps buf for reading from bit offset 0.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// Take reads n bits, byte-sized chunks at a time. Reading past the end
// yields zeros (see BitReader).
func (br *BitReader) Take(n int) uint64 {
	var v uint64
	got := 0
	for got < n {
		byteIdx := br.pos >> 3
		if byteIdx >= len(br.buf) {
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
// already Validate against the configuration w was computed for.
func Encode(in *Instr, w Widths, bw *BitWriter) {
	bw.Put(uint64(in.Kind), w.Opcode)
	switch in.Kind {
	case KindNop:
	case KindExec, KindStore:
		if in.Kind == KindExec {
			for _, op := range in.PEOps {
				bw.Put(uint64(op), w.PEOp)
			}
		} else {
			bw.Put(uint64(in.MemAddr), w.MemAddr)
		}
		for _, bc := range in.Banks {
			bw.PutBool(bc.ReadEn)
			bw.Put(uint64(bc.ReadAddr), w.ReadAddr)
		}
		for _, bc := range in.Banks {
			bw.PutBool(bc.ValidRst)
		}
		if in.Kind == KindStore {
			break
		}
		for _, bc := range in.Banks {
			bw.Put(uint64(bc.InputSel), w.BankSel)
		}
		for _, bc := range in.Banks {
			bw.PutBool(bc.WriteEn)
			bw.Put(uint64(bc.WriteSel), w.WriteSel)
		}
	case KindLoad:
		bw.Put(uint64(in.MemAddr), w.MemAddr)
		for _, en := range in.Mask {
			bw.PutBool(en)
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

// decode reads one instruction from br and appends it to b. It mirrors
// the hardware decoder: the opcode determines how many further bits
// belong to the instruction. br must hold a whole instruction of a
// known kind, as Unpack's scan checks.
func (b *Builder) decode(br *BitReader, cfg Config, w Widths) {
	k := Kind(br.Take(w.Opcode))
	in := Instr{Kind: k}
	switch k {
	case KindExec, KindStore:
		if k == KindExec {
			in = b.Exec(cfg)
			for i := range in.PEOps {
				in.PEOps[i] = PEOp(br.Take(w.PEOp))
			}
		} else {
			in = b.Store(cfg, int(br.Take(w.MemAddr)))
		}
		banks := in.Banks
		for i := range banks {
			banks[i].ReadEn = br.TakeBool()
			banks[i].ReadAddr = uint16(br.Take(w.ReadAddr))
		}
		for i := range banks {
			banks[i].ValidRst = br.TakeBool()
		}
		if k == KindStore {
			break
		}
		for i := range banks {
			banks[i].InputSel = uint16(br.Take(w.BankSel))
		}
		for i := range banks {
			banks[i].WriteEn = br.TakeBool()
			banks[i].WriteSel = uint16(br.Take(w.WriteSel))
		}
	case KindLoad:
		in = b.Load(cfg, int(br.Take(w.MemAddr)))
		for i := range in.Mask {
			in.Mask[i] = br.TakeBool()
		}
	case KindStore4, KindCopy:
		in.Moves = b.Moves(MaxMoves)
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
	}
	b.Append(in)
}
