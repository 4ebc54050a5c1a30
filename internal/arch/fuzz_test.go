package arch

import (
	"bytes"
	"testing"
)

// fuzzSource deals deterministic bytes off the fuzz input, zero-padding
// past the end.
type fuzzSource struct {
	data []byte
	pos  int
}

func (s *fuzzSource) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

// fuzzConfig derives a valid architecture configuration from the input:
// D in 1..3, B a multiple of 2^D, small R, any compilable topology.
func fuzzConfig(s *fuzzSource) Config {
	d := 1 + s.next()%3
	trees := 1 + s.next()%3
	rChoices := []int{2, 4, 8, 32, 70} // 70 crosses the one-word bitmap boundary
	cfg := Config{
		D:      d,
		B:      trees << uint(d),
		R:      rChoices[s.next()%len(rChoices)],
		Output: OutputTopology(s.next() % 3),
	}
	return cfg.Normalize()
}

// fuzzInstr builds an arbitrary in-range instruction of any kind. All
// field values are clamped into their encodable ranges, so the packed
// form must round-trip exactly.
func fuzzInstr(bd *Builder, s *fuzzSource, cfg Config) Instr {
	rows := cfg.DataMemWords / cfg.B
	switch Kind(s.next() % int(numKinds)) {
	case KindNop:
		return Instr{Kind: KindNop}
	case KindExec:
		in := bd.Exec(cfg)
		for i := range in.PEOps {
			in.PEOps[i] = PEOp(s.next() % int(numPEOps))
		}
		for b := range in.Banks {
			bc := &in.Banks[b]
			bc.ReadEn = s.next()%2 == 1
			bc.ReadAddr = uint16(s.next() % cfg.R)
			bc.ValidRst = s.next()%2 == 1
			bc.InputSel = uint16(s.next() % cfg.B)
			bc.WriteEn = s.next()%2 == 1
			switch cfg.Output {
			case OutCrossbar:
				bc.WriteSel = uint16(s.next() % cfg.NumPEs())
			case OutPerLayer:
				bc.WriteSel = uint16(s.next() % cfg.D)
			}
		}
		return in
	case KindLoad:
		in := bd.Load(cfg, s.next()%rows)
		for b := range in.Mask {
			in.Mask[b] = s.next()%2 == 1
		}
		return in
	case KindStore:
		in := bd.Store(cfg, s.next()%rows)
		for b := range in.Banks {
			bc := &in.Banks[b]
			bc.ReadEn = s.next()%2 == 1
			bc.ReadAddr = uint16(s.next() % cfg.R)
			bc.ValidRst = s.next()%2 == 1
		}
		return in
	default: // KindCopy, KindStore4
		kind := KindCopy
		var memAddr int
		if s.next()%2 == 0 {
			kind = KindStore4
			memAddr = s.next() % rows
		}
		in := Instr{Kind: kind, MemAddr: memAddr, Moves: bd.Moves(MaxMoves)}
		lanes := 1 + s.next()%MaxMoves
		for i := 0; i < lanes; i++ {
			in.Moves = append(in.Moves, Move{
				SrcBank: uint16(s.next() % cfg.B),
				SrcAddr: uint16(s.next() % cfg.R),
				Dst:     uint16(s.next() % cfg.B),
				Rst:     s.next()%2 == 1,
			})
		}
		return in
	}
}

// FuzzEncodeDisasmRoundTrip checks the instruction codec over arbitrary
// configurations and instructions: pack → decode → repack must be a bit
// identity, the packed length must match the advertised per-kind width,
// and both sides must disassemble to the same text.
func FuzzEncodeDisasmRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0: 200, 63: 7})
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		cfg := fuzzConfig(s)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generator produced invalid config %s: %v", cfg, err)
		}
		w := WidthsOf(cfg)
		var bd Builder
		in := fuzzInstr(&bd, s, cfg)
		if err := in.Validate(cfg); err != nil {
			t.Fatalf("generator produced invalid instr (%s): %v", Disassemble(&in, cfg), err)
		}

		var bw BitWriter
		Encode(&in, w, &bw)
		if bw.nbit != w.Len(in.Kind) {
			t.Fatalf("%s: packed %d bits, Widths advertises %d", in.Kind, bw.nbit, w.Len(in.Kind))
		}

		back, err := Unpack(bw.Bytes(), cfg, 1)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out := &back.Instrs[0]
		if out.Kind != in.Kind {
			t.Fatalf("kind changed: %v -> %v", in.Kind, out.Kind)
		}

		var bw2 BitWriter
		Encode(out, w, &bw2)
		if bw2.nbit != bw.nbit || !bytes.Equal(bw2.Bytes(), bw.Bytes()) {
			t.Fatalf("repack not identical for %s:\n  first  %x (%d bits)\n  second %x (%d bits)",
				in.Kind, bw.Bytes(), bw.nbit, bw2.Bytes(), bw2.nbit)
		}

		d1, d2 := Disassemble(&in, cfg), Disassemble(out, cfg)
		if d1 != d2 {
			t.Fatalf("disassembly diverges:\n  in:  %s\n  out: %s", d1, d2)
		}
		if err := out.Validate(cfg); err != nil {
			t.Fatalf("decoded instruction invalid: %v", err)
		}
	})
}
