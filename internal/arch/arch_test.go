package arch

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConfigDerived(t *testing.T) {
	c := MinEDP()
	if c.Trees() != 8 {
		t.Errorf("Trees = %d, want 8", c.Trees())
	}
	if c.NumPEs() != 8*7 {
		t.Errorf("NumPEs = %d, want 56", c.NumPEs())
	}
	if c.TreeInputs() != 8 {
		t.Errorf("TreeInputs = %d, want 8", c.TreeInputs())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{D: 0, B: 8, R: 16},
		{D: 3, B: 4, R: 16},  // B < 2^D
		{D: 2, B: 10, R: 16}, // not a multiple
		{D: 2, B: 8, R: 1},
		{D: 7, B: 256, R: 16},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%v) should fail", c)
		}
	}
}

func TestDSEGridValidates(t *testing.T) {
	// Every point of the paper's 48-combination sweep (fig. 11) that
	// satisfies B ≥ 2^D must validate.
	n := 0
	for _, d := range []int{1, 2, 3} {
		for _, b := range []int{8, 16, 32, 64} {
			for _, r := range []int{16, 32, 64, 128} {
				c := Config{D: d, B: b, R: r}
				if err := c.Validate(); err != nil {
					t.Errorf("grid point %v: %v", c, err)
				}
				n++
			}
		}
	}
	if n != 48 {
		t.Fatalf("grid has %d points, want 48", n)
	}
}

func TestPEIDRoundTrip(t *testing.T) {
	for _, cfg := range []Config{MinEDP(), {D: 1, B: 8, R: 16}, {D: 2, B: 32, R: 16}} {
		for id := 0; id < cfg.NumPEs(); id++ {
			p := cfg.PECoord(id)
			if got := cfg.PEID(p); got != id {
				t.Fatalf("%v: PEID(PECoord(%d)) = %d", cfg, id, got)
			}
			if p.Layer < 1 || p.Layer > cfg.D || p.Index < 0 || p.Index >= cfg.LayerWidth(p.Layer) {
				t.Fatalf("%v: bad coord %+v", cfg, p)
			}
		}
	}
}

func TestTreeStructure(t *testing.T) {
	cfg := Config{D: 3, B: 16, R: 32}.Normalize()
	root := PE{Tree: 1, Layer: 3, Index: 0}
	l, r, ok := cfg.Children(root)
	if !ok || l.Layer != 2 || r.Index != 1 {
		t.Fatalf("Children(root) = %v %v %v", l, r, ok)
	}
	if _, _, ok := cfg.Children(PE{Tree: 0, Layer: 1, Index: 0}); ok {
		t.Fatal("leaf PEs have no children")
	}
	a, b := cfg.InputPorts(PE{Tree: 1, Layer: 1, Index: 2})
	if a != 8+4 || b != 8+5 {
		t.Fatalf("InputPorts = %d,%d", a, b)
	}
	// The wiring tables say the same: layers in id order, leaf PEs read
	// their ports, and every other PE reads its children.
	w := cfg.Wiring()
	seen := 0
	for layer := 1; layer <= cfg.D; layer++ {
		for i, id := range w.Layers[layer] {
			p := cfg.PECoord(id)
			if p.Layer != layer || (i > 0 && id <= w.Layers[layer][i-1]) {
				t.Fatalf("Layers[%d][%d] = %d (%+v)", layer, i, id, p)
			}
			seen++
		}
	}
	if seen != cfg.NumPEs() {
		t.Fatalf("wiring lists %d PEs, want %d", seen, cfg.NumPEs())
	}
	if leaf := cfg.PEID(PE{Tree: 1, Layer: 1, Index: 2}); w.Left[leaf] != a || w.Right[leaf] != b {
		t.Fatalf("leaf wiring %d,%d, want ports %d,%d", w.Left[leaf], w.Right[leaf], a, b)
	}
	if id := cfg.PEID(root); w.Left[id] != cfg.PEID(l) || w.Right[id] != cfg.PEID(r) {
		t.Fatalf("root wiring %d,%d, want children %d,%d", w.Left[id], w.Right[id], cfg.PEID(l), cfg.PEID(r))
	}
	used := make([]bool, cfg.B)
	ops := make([]PEOp, cfg.NumPEs())
	ops[cfg.PEID(PE{Tree: 1, Layer: 1, Index: 2})] = PEBypassR
	w.MarkPorts(ops, used)
	for port, u := range used {
		if u != (port == 13) {
			t.Fatalf("MarkPorts: port %d used=%v; only port 13 feeds a bypass-right leaf", port, u)
		}
	}
}

func TestPerLayerTopologyInvariants(t *testing.T) {
	cfg := Config{D: 3, B: 32, R: 32}.Normalize()
	for bank := 0; bank < cfg.B; bank++ {
		perLayer := make(map[int]int)
		for id := 0; id < cfg.NumPEs(); id++ {
			p := cfg.PECoord(id)
			if cfg.CanWrite(p, bank) {
				perLayer[p.Layer]++
			}
		}
		// Fig. 6(b): exactly one PE per layer per bank.
		for l := 1; l <= cfg.D; l++ {
			if perLayer[l] != 1 {
				t.Fatalf("bank %d layer %d has %d writers, want 1", bank, l, perLayer[l])
			}
		}
	}
	// Each PE of layer l reaches exactly 2^l banks, all within its tree.
	for id := 0; id < cfg.NumPEs(); id++ {
		p := cfg.PECoord(id)
		banks := writableBanks(cfg, p)
		if len(banks) != 1<<uint(p.Layer) {
			t.Fatalf("PE %+v writes %d banks, want %d", p, len(banks), 1<<uint(p.Layer))
		}
		for _, b := range banks {
			if b/cfg.TreeInputs() != p.Tree {
				t.Fatalf("PE %+v writes bank %d outside its tree", p, b)
			}
			if !cfg.CanWrite(p, b) {
				t.Fatalf("writableBanks inconsistent with CanWrite")
			}
		}
	}
}

func TestCrossbarTopology(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16, Output: OutCrossbar}.Normalize()
	for id := 0; id < cfg.NumPEs(); id++ {
		if got := len(writableBanks(cfg, cfg.PECoord(id))); got != cfg.B {
			t.Fatalf("crossbar PE %d writes %d banks", id, got)
		}
	}
}

func TestPerPETopology(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16, Output: OutPerPE}.Normalize()
	// Every bank must have exactly one writer; the spare bank of each
	// tree group attaches to the root.
	for bank := 0; bank < cfg.B; bank++ {
		writers := 0
		for id := 0; id < cfg.NumPEs(); id++ {
			if cfg.CanWrite(cfg.PECoord(id), bank) {
				writers++
			}
		}
		if writers != 1 {
			t.Fatalf("bank %d has %d writers, want 1", bank, writers)
		}
	}
	root := PE{Tree: 0, Layer: 2, Index: 0}
	if got := len(writableBanks(cfg, root)); got != 2 {
		t.Fatalf("root writes %d banks, want 2 (own + spare)", got)
	}
}

func TestWriteSelRoundTrip(t *testing.T) {
	for _, topo := range []OutputTopology{OutCrossbar, OutPerLayer, OutPerPE} {
		cfg := Config{D: 3, B: 16, R: 32, Output: topo}.Normalize()
		for id := 0; id < cfg.NumPEs(); id++ {
			p := cfg.PECoord(id)
			for _, bank := range writableBanks(cfg, p) {
				sel, err := cfg.WriteSel(bank, p)
				if err != nil {
					t.Fatalf("%v: %v", topo, err)
				}
				if got := cfg.SelPE(bank, sel); got != p {
					t.Fatalf("%v: SelPE(%d,%d) = %+v, want %+v", topo, bank, sel, got, p)
				}
			}
		}
	}
}

func TestWriteSelRejectsIllegal(t *testing.T) {
	cfg := Config{D: 3, B: 16, R: 32}.Normalize()
	// Leaf PE 0 of tree 0 writes banks {0,1} only; bank 5 must fail.
	if _, err := cfg.WriteSel(5, PE{Tree: 0, Layer: 1, Index: 0}); err == nil {
		t.Fatal("expected illegal-write error")
	}
}

func TestWidthsMatchPaperExample(t *testing.T) {
	// Fig. 7 gives example lengths for D=3, B=16, R=32: nop=4, load=52,
	// store=132, store_4=56, copy_4=72, exec=272. Our encoding is not
	// bit-identical but must land in the same regime and ordering.
	cfg := Config{D: 3, B: 16, R: 32}.Normalize()
	w := WidthsOf(cfg)
	if w.Nop != 3 && w.Nop != 4 {
		t.Errorf("Nop width = %d", w.Nop)
	}
	if w.Exec < 200 || w.Exec > 340 {
		t.Errorf("Exec width = %d, want ≈272", w.Exec)
	}
	if w.Load < 30 || w.Load > 70 {
		t.Errorf("Load width = %d, want ≈52", w.Load)
	}
	if w.Store < 100 || w.Store > 170 {
		t.Errorf("Store width = %d, want ≈132", w.Store)
	}
	if !(w.Nop < w.Load && w.Load < w.Store && w.Store < w.Exec) {
		t.Errorf("length ordering violated: %+v", w)
	}
	if w.IL != w.Exec {
		t.Errorf("IL = %d, want exec length %d", w.IL, w.Exec)
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		var bw BitWriter
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		type field struct {
			v uint64
			w int
		}
		var fields []field
		for i := 0; i < n; i++ {
			w := 1 + int(widths[i]%16)
			v := uint64(vals[i]) & ((1 << uint(w)) - 1)
			fields = append(fields, field{v, w})
			bw.Put(v, w)
		}
		br := NewBitReader(bw.Bytes())
		for _, f := range fields {
			if br.Take(f.w) != f.v {
				return false
			}
		}
		return br.pos <= 8*len(br.buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitReaderOverrun(t *testing.T) {
	br := NewBitReader([]byte{0xFF})
	if v := br.Take(8); v != 0xFF {
		t.Fatalf("read %#x, want 0xff", v)
	}
	if v := br.Take(3); v != 0 || br.pos != 11 {
		t.Fatalf("read past the end: %d at bit %d, want 0 at bit 11", v, br.pos)
	}
}

func randomInstr(b *Builder, rng *rand.Rand, cfg Config) Instr {
	switch rng.Intn(6) {
	case 0:
		return Instr{Kind: KindNop}
	case 1:
		in := b.Exec(cfg)
		for i := range in.PEOps {
			in.PEOps[i] = PEOp(rng.Intn(numPEOps))
		}
		for b := range in.Banks {
			bc := &in.Banks[b]
			bc.ReadEn = rng.Intn(2) == 0
			bc.ReadAddr = uint16(rng.Intn(cfg.R))
			bc.ValidRst = rng.Intn(2) == 0
			bc.InputSel = uint16(rng.Intn(cfg.B))
			if rng.Intn(2) == 0 {
				// Pick a legal writer for this bank.
				var cands []PE
				for id := 0; id < cfg.NumPEs(); id++ {
					if p := cfg.PECoord(id); cfg.CanWrite(p, b) {
						cands = append(cands, p)
					}
				}
				p := cands[rng.Intn(len(cands))]
				bc.WriteSel, _ = cfg.WriteSel(b, p)
				bc.WriteEn = true
			}
		}
		return in
	case 2:
		in := b.Load(cfg, rng.Intn(cfg.DataMemWords/cfg.B))
		for b := range in.Mask {
			in.Mask[b] = rng.Intn(2) == 0
		}
		return in
	case 3:
		in := b.Store(cfg, rng.Intn(cfg.DataMemWords/cfg.B))
		for b := range in.Banks {
			in.Banks[b] = BankCtl{ReadEn: rng.Intn(2) == 0, ReadAddr: uint16(rng.Intn(cfg.R)), ValidRst: rng.Intn(2) == 0}
		}
		return in
	default:
		k := KindCopy
		memAddr := 0
		if rng.Intn(2) == 0 {
			k = KindStore4
			memAddr = rng.Intn(cfg.DataMemWords / cfg.B)
		}
		in := Instr{Kind: k, MemAddr: memAddr, Moves: b.Moves(MaxMoves)}
		for i := 0; i < 1+rng.Intn(MaxMoves); i++ {
			in.Moves = append(in.Moves, Move{
				SrcBank: uint16(rng.Intn(cfg.B)),
				SrcAddr: uint16(rng.Intn(cfg.R)),
				Dst:     uint16(rng.Intn(cfg.B)),
				Rst:     rng.Intn(2) == 0,
			})
		}
		return in
	}
}

func instrEqual(a, b *Instr) bool {
	return a.Kind == b.Kind && a.MemAddr == b.MemAddr && slices.Equal(a.PEOps, b.PEOps) &&
		slices.Equal(a.Banks, b.Banks) && slices.Equal(a.Mask, b.Mask) && slices.Equal(a.Moves, b.Moves)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, topo := range []OutputTopology{OutCrossbar, OutPerLayer, OutPerPE} {
		cfg := Config{D: 3, B: 16, R: 32, Output: topo}.Normalize()
		rng := rand.New(rand.NewSource(42))
		var b Builder
		for i := 0; i < 200; i++ {
			b.Append(randomInstr(&b, rng, cfg))
		}
		p := mustProgram(t, &b, cfg)
		packed := p.Pack()
		if got, want := len(packed), (p.BitSize()+7)/8; got != want {
			t.Fatalf("%v: packed %d bytes, want %d", topo, got, want)
		}
		back, err := Unpack(packed, cfg, len(p.Instrs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range back.Instrs {
			if !instrEqual(&p.Instrs[i], &back.Instrs[i]) {
				t.Fatalf("%v: instruction %d (%v) did not round trip", topo, i, p.Instrs[i].Kind)
			}
		}
	}
}

func TestDecodeLengthsMatchWidths(t *testing.T) {
	cfg := MinEDP()
	w := WidthsOf(cfg)
	rng := rand.New(rand.NewSource(7))
	var b Builder
	for i := 0; i < 100; i++ {
		in := randomInstr(&b, rng, cfg)
		var bw BitWriter
		Encode(&in, w, &bw)
		if bw.nbit != w.Len(in.Kind) {
			t.Fatalf("%v encoded to %d bits, Widths says %d", in.Kind, bw.nbit, w.Len(in.Kind))
		}
		br := NewBitReader(bw.Bytes())
		b.decode(br, cfg, w)
		if br.pos != w.Len(in.Kind) {
			t.Fatalf("%v decode consumed %d bits, want %d", in.Kind, br.pos, w.Len(in.Kind))
		}
	}
}

func TestInstrValidateCatchesErrors(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16}.Normalize()
	var b Builder
	in := b.Exec(cfg)
	in.Banks[0] = BankCtl{ReadEn: true, ReadAddr: uint16(cfg.R)} // out of range
	if err := in.Validate(cfg); err == nil {
		t.Error("expected read-addr error")
	}
	in2 := b.Exec(cfg)
	in2.Banks[0] = BankCtl{WriteEn: true, WriteSel: uint16(cfg.D)} // illegal layer select
	if err := in2.Validate(cfg); err == nil {
		t.Error("expected write-sel error")
	}
	in3 := &Instr{Kind: KindCopy}
	if err := in3.Validate(cfg); err == nil {
		t.Error("expected empty-moves error")
	}
	in4 := b.Load(cfg, cfg.DataMemWords) // out of range row
	if err := in4.Validate(cfg); err == nil {
		t.Error("expected mem range error")
	}
	in5 := b.Exec(cfg)
	in5.PEOps[0] = numPEOps // decodable from the opcode field, outside the ISA
	if err := in5.Validate(cfg); err == nil {
		t.Error("expected PE opcode error")
	}
}

// A store gathers through Banks, so Validate must bound its length
// (Encode and the walker index it unchecked) and hold the exec-only
// half, which the packed store does not carry, to zero.
func TestStoreValidateChecksEveryShape(t *testing.T) {
	cfg := Config{D: 2, B: 8, R: 16}.Normalize()
	var b Builder
	b.Append(Instr{Kind: KindStore, Banks: []BankCtl{{ReadEn: true}}})
	if _, err := b.Program(cfg); err == nil {
		t.Error("Program accepted a store with one bank of 8")
	}
	for name, bc := range map[string]BankCtl{
		"input select": {InputSel: 1},
		"write enable": {WriteEn: true},
		"write select": {WriteSel: 1},
	} {
		in := b.Store(cfg, 0)
		in.Banks[3] = bc
		if err := in.Validate(cfg); err == nil {
			t.Errorf("%s: Validate accepted a store Encode cannot pack", name)
		}
	}
}

func TestFixedWriteAddrBitsLarger(t *testing.T) {
	cfg := MinEDP()
	rng := rand.New(rand.NewSource(3))
	var b Builder
	for i := 0; i < 300; i++ {
		b.Append(randomInstr(&b, rng, cfg))
	}
	p := mustProgram(t, &b, cfg)
	if p.FixedWriteAddrBits() <= p.BitSize() {
		t.Fatalf("explicit write addresses should cost more: %d vs %d",
			p.FixedWriteAddrBits(), p.BitSize())
	}
}

func TestKindAndPEOpStrings(t *testing.T) {
	if KindExec.String() != "exec" || KindCopy.String() != "copy_4" {
		t.Error("kind strings wrong")
	}
	if PEAdd.String() != "add" || PEBypassR.String() != "bypr" {
		t.Error("peop strings wrong")
	}
}

// writableBanks lists the banks PE p can write under c, ascending, by
// enumeration: the tests hold CanWrite to it.
func writableBanks(c Config, p PE) []int {
	var banks []int
	switch c.Output {
	case OutCrossbar:
		banks = make([]int, c.B)
		for i := range banks {
			banks[i] = i
		}
	case OutPerLayer:
		base := p.Tree * c.TreeInputs()
		for j := p.Index << uint(p.Layer); j < (p.Index+1)<<uint(p.Layer); j++ {
			banks = append(banks, base+j)
		}
	case OutPerPE:
		for b := 0; b < c.B; b++ {
			if bp, ok := c.bankPE(b); ok && bp == p {
				banks = append(banks, b)
			}
		}
	}
	return banks
}

// mustProgram returns b's program of cfg, failing t if an instruction
// does not validate.
func mustProgram(t testing.TB, b *Builder, cfg Config) *Program {
	t.Helper()
	p, err := b.Program(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
