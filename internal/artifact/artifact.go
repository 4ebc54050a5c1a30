// Package artifact defines the versioned on-disk form of a compiled
// DPU-v2 program — the `.dpuprog` file — and a content-addressed store
// of them (store.go). Together they turn compilation into a true
// offline step: `dpu-compile` emits an artifact once, any number of
// `dpu-serve` processes warm-start from the store and never compile the
// graph again.
//
// An artifact is self-describing: it carries the hardware configuration
// and (normalized) compiler options it was built for, the source
// graph's content fingerprint — exactly the serving engine's cache key
// — and everything needed to execute: the binarized graph, the node
// remapping, the input/output data-memory map, the compile statistics
// and the densely packed instruction stream plus initial memory image.
//
// File layout (all multi-byte header fields little-endian):
//
//	offset  size  field
//	0       8     magic "\x7fDPUPROG"
//	8       2     format version (currently 1)
//	10      4     CRC-32C (Castagnoli) of the payload
//	14      8     payload length in bytes
//	22      …     payload
//
// The payload is a canonical varint encoding (see encodePayload): every
// integer is a minimal-length varint, map-like sections are emitted in
// a fixed order, and the packed instruction stream must repack
// byte-identically. Decode therefore accepts exactly the image Encode
// produces — Encode(Decode(x)) == x whenever Decode(x) succeeds — so a
// byte-level difference between two artifacts always reflects a real
// difference in content.
//
// Malformed input never panics; it yields a typed error: ErrBadMagic,
// ErrVersion, ErrTruncated, ErrChecksum, or ErrCorrupt for content that
// passes the checksum but violates a structural invariant. Any change
// to the payload layout must bump Version (and teach Decode the old
// layouts, or consciously abandon them); the golden fixtures under
// testdata/ pin the current layout.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// Version is the current format version. Bump it on any payload layout
// change so stale artifacts fail with ErrVersion instead of decoding
// into garbage.
const Version = 1

// magic opens every artifact; the non-ASCII first byte keeps text tools
// from mangling the file.
var magic = [8]byte{0x7f, 'D', 'P', 'U', 'P', 'R', 'O', 'G'}

// headerSize is magic + version (u16) + checksum (u32) + payload length
// (u64).
const headerSize = 8 + 2 + 4 + 8

// Typed decode errors. Decode wraps them with positional detail; match
// with errors.Is.
var (
	// ErrBadMagic means the input does not start with an artifact header.
	ErrBadMagic = errors.New("artifact: bad magic")
	// ErrVersion means the format version is not supported by this build.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrTruncated means the input ends before the declared payload does.
	ErrTruncated = errors.New("artifact: truncated")
	// ErrChecksum means the payload bytes do not match their checksum.
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrCorrupt means the payload passed the checksum but violates a
	// structural invariant (also reported for non-canonical encodings).
	ErrCorrupt = errors.New("artifact: corrupt payload")
)

// castagnoli is the CRC-32C table used for the payload checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Artifact is one compiled program with its content address: the
// serving engine keys its cache on (Fingerprint, Compiled.Prog.Cfg,
// Options), and the artifact carries all three so a store can be
// rebuilt from the files alone.
type Artifact struct {
	// Fingerprint is the content hash of the *source* graph — the graph
	// the client submits — which may differ from Compiled.Graph's own
	// fingerprint when binarization rewrote it.
	Fingerprint dag.Fingerprint
	// Options are the compiler options the program was built with,
	// normalized (Encode normalizes them, so Decode always returns the
	// cache-key form).
	Options compiler.Options
	// Compiled is the runnable program: instructions, memory image,
	// binarized graph and data-memory maps.
	Compiled *compiler.Compiled
}

// EncodeBytes serializes a into the .dpuprog format.
func EncodeBytes(a *Artifact) ([]byte, error) {
	payload, err := encodePayload(a)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf, magic[:])
	binary.LittleEndian.PutUint16(buf[8:], Version)
	binary.LittleEndian.PutUint32(buf[10:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(buf[14:], uint64(len(payload)))
	return append(buf, payload...), nil
}

// Encode writes a to w in the .dpuprog format.
func Encode(w io.Writer, a *Artifact) error {
	b, err := EncodeBytes(a)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeBytes parses a .dpuprog image. Every failure is typed (see the
// Err* values); success returns a fully validated artifact whose
// program is executable as-is.
func DecodeBytes(b []byte) (*Artifact, error) {
	if len(b) < headerSize {
		if len(b) >= len(magic) && !bytes.Equal(b[:len(magic)], magic[:]) {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("%w: %d-byte input shorter than the %d-byte header", ErrTruncated, len(b), headerSize)
	}
	if !bytes.Equal(b[:len(magic)], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(b[8:]); v != Version {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, v, Version)
	}
	sum := binary.LittleEndian.Uint32(b[10:])
	plen := binary.LittleEndian.Uint64(b[14:])
	rest := b[headerSize:]
	if uint64(len(rest)) < plen {
		return nil, fmt.Errorf("%w: payload declares %d bytes, %d present", ErrTruncated, plen, len(rest))
	}
	if uint64(len(rest)) > plen {
		return nil, fmt.Errorf("%w: %d bytes of trailing data", ErrCorrupt, uint64(len(rest))-plen)
	}
	if got := crc32.Checksum(rest, castagnoli); got != sum {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, sum, got)
	}
	return decodePayload(rest)
}

// Decode reads one artifact from r (consuming it to EOF).
func Decode(r io.Reader) (*Artifact, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(b)
}

// ---------------------------------------------------------------------
// Payload encoding. Canonical by construction: minimal varints, fixed
// section order, sinks in graph-output order, packed instructions in
// their canonical bit packing.

// enc accumulates the payload.
type enc struct{ buf []byte }

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *enc) f64(v float64)    { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *enc) raw(b []byte)     { e.buf = append(e.buf, b...) }
func (e *enc) bytes(b []byte)   { e.uvarint(uint64(len(b))); e.raw(b) }
func (e *enc) str(s string)     { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) boolean(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) config(cfg arch.Config) {
	e.uvarint(uint64(cfg.D))
	e.uvarint(uint64(cfg.B))
	e.uvarint(uint64(cfg.R))
	e.u8(uint8(cfg.Output))
	e.uvarint(uint64(cfg.DataMemWords))
	e.f64(cfg.ClockMHz)
}

func (e *enc) options(o compiler.Options) {
	e.varint(o.Seed)
	e.boolean(o.RandomBanks)
	e.varint(int64(o.Window))
	e.varint(int64(o.SeedLookahead))
	e.varint(int64(o.FillLookahead))
	e.varint(int64(o.PartitionSize))
}

// maxTuning bounds the compiler tuning knobs an artifact may carry —
// shared by encoder and decoder, so Encode can never produce a payload
// Decode rejects (a persisted-but-undecodable artifact would put its
// key in an endless recompile/re-persist cycle).
const maxTuning = 1 << 20

// Format limits on the register file, aligned with the serving layer's
// machine-size caps: instruction decode allocates per-instruction
// slices proportional to B *before* reading any bits, and execution
// allocates B·R registers, so a config beyond any supported design is
// corruption to reject up front, not a large allocation to attempt.
// (The paper's largest design is B=64, R=256.)
const (
	maxFormatB = 1 << 10
	maxFormatR = 1 << 12
)

// checkConfig enforces the format's config bounds, shared by encoder
// and decoder.
func checkConfig(cfg arch.Config) error {
	if cfg.B > maxFormatB || cfg.R > maxFormatR {
		return fmt.Errorf("register file %dx%d exceeds the format limit %dx%d", cfg.B, cfg.R, maxFormatB, maxFormatR)
	}
	const maxMemWords = 1 << 26
	if cfg.DataMemWords > maxMemWords {
		return fmt.Errorf("data memory %d words exceeds the format limit %d", cfg.DataMemWords, maxMemWords)
	}
	return nil
}

// checkOptions enforces the decoder's option bounds at encode time.
func checkOptions(o compiler.Options) error {
	for _, f := range []struct {
		name string
		v    int
		max  int
	}{
		{"window", o.Window, maxTuning},
		{"seed lookahead", o.SeedLookahead, maxTuning},
		{"fill lookahead", o.FillLookahead, maxTuning},
		{"partition size", o.PartitionSize, math.MaxInt32},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("artifact: compiler option %s %d outside the encodable range [0,%d]", f.name, f.v, f.max)
		}
	}
	return nil
}

func encodePayload(a *Artifact) ([]byte, error) {
	c := a.Compiled
	if c == nil || c.Prog == nil || c.Graph == nil {
		return nil, errors.New("artifact: nil compiled program")
	}
	g := c.Graph
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if !g.IsBinary() {
		return nil, errors.New("artifact: compiled graph is not binary")
	}
	opts := a.Options.Normalized()
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	cfg := c.Prog.Cfg
	if err := checkConfig(cfg); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	var e enc
	e.config(cfg)
	e.options(opts)
	e.raw(a.Fingerprint[:])

	// Graph: name, then nodes in id (topological) order.
	e.str(g.Name)
	e.uvarint(uint64(g.NumNodes()))
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(dag.NodeID(i))
		e.u8(uint8(n.Op))
		switch n.Op {
		case dag.OpInput:
		case dag.OpConst:
			e.f64(n.Val)
		case dag.OpAdd, dag.OpMul:
			e.uvarint(uint64(len(n.Args)))
			for _, arg := range n.Args {
				e.uvarint(uint64(arg))
			}
		default:
			return nil, fmt.Errorf("artifact: cannot serialize op %v", n.Op)
		}
	}

	e.uvarint(uint64(len(c.Remap)))
	for _, id := range c.Remap {
		e.uvarint(uint64(id))
	}

	inputs := g.Inputs()
	if len(c.InputWord) != len(inputs) {
		return nil, fmt.Errorf("artifact: %d input words for %d graph inputs", len(c.InputWord), len(inputs))
	}
	for _, w := range c.InputWord {
		e.varint(int64(w))
	}

	// Output words in graph-output order (ascending sink id), the only
	// order Decode accepts — maps never leak iteration order here.
	outs := g.Outputs()
	for _, sink := range outs {
		w, ok := c.OutputWord[sink]
		if !ok {
			return nil, fmt.Errorf("artifact: sink %d has no output word", sink)
		}
		e.varint(int64(w))
	}

	e.stats(c.Stats)

	// Program: instruction count + canonical dense packing + memory image.
	e.uvarint(uint64(len(c.Prog.Instrs)))
	e.bytes(c.Prog.Pack())
	e.uvarint(uint64(len(c.Prog.InitMem)))
	for _, v := range c.Prog.InitMem {
		e.f64(v)
	}
	return e.buf, nil
}

func (e *enc) stats(s compiler.Stats) {
	for _, v := range []int{
		s.Nodes, s.Blocks, s.Execs, s.Copies, s.CopiedWords, s.InputConflicts,
		s.OutputMoves, s.Loads, s.Stores, s.SpillStores, s.Reloads, s.Nops,
		s.Instructions, s.Cycles,
	} {
		e.varint(int64(v))
	}
	e.f64(s.PeakUtil)
	e.f64(s.MeanUtil)
	e.f64(s.CompileSeconds)
}

// ---------------------------------------------------------------------
// Payload decoding. The decoder is error-latching (the first failure
// sticks and later reads return zero values) and canonical: redundant
// varint encodings, out-of-order sections and non-minimal instruction
// packings are all rejected, never silently normalized.

type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: byte %d: %s", ErrCorrupt, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

// uvarintLen is the minimal encoded size of v, the only size the
// canonical decoder accepts (redundant continuation bytes would make
// two byte streams decode to one artifact).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	if n != uvarintLen(v) {
		d.fail("non-minimal uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	// Varint is the zigzag transform fed through uvarint.
	zz := uint64(v) << 1
	if v < 0 {
		zz = ^zz
	}
	if n != uvarintLen(zz) {
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and bounds it by what the remaining
// payload could possibly hold (perItem is a lower bound on one item's
// encoded size), so a corrupted length can never drive a huge
// allocation.
func (d *dec) count(what string, perItem int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/perItem) {
		d.fail("%s count %d exceeds remaining payload", what, v)
		return 0
	}
	return int(v)
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("unexpected end of payload")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("unexpected end of payload")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *dec) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.fail("unexpected end of payload")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool out of range")
		return false
	}
}

func (d *dec) intNonNeg(what string, limit int) int {
	v := d.varint()
	if d.err != nil {
		return 0
	}
	if v < 0 || v > int64(limit) {
		d.fail("%s %d out of range [0,%d]", what, v, limit)
		return 0
	}
	return int(v)
}

// decodeOptions reads the compiler-options section and validates it
// into normalized (cache-key) form.
func (d *dec) decodeOptions() compiler.Options {
	var opts compiler.Options
	opts.Seed = d.varint()
	opts.RandomBanks = d.boolean()
	opts.Window = d.intNonNeg("window", maxTuning)
	opts.SeedLookahead = d.intNonNeg("seed lookahead", maxTuning)
	opts.FillLookahead = d.intNonNeg("fill lookahead", maxTuning)
	opts.PartitionSize = d.intNonNeg("partition size", math.MaxInt32)
	if d.err == nil && opts != opts.Normalized() {
		d.fail("options %+v not in normalized form", opts)
	}
	return opts
}

// decodeConfig reads the config section and validates it into
// normalized, format-bounded form.
func (d *dec) decodeConfig() arch.Config {
	var cfg arch.Config
	cfg.D = int(d.uvarint())
	cfg.B = int(d.uvarint())
	cfg.R = int(d.uvarint())
	cfg.Output = arch.OutputTopology(d.u8())
	cfg.DataMemWords = int(d.uvarint())
	cfg.ClockMHz = d.f64()
	if d.err != nil {
		return cfg
	}
	if err := cfg.Validate(); err != nil {
		d.fail("config: %v", err)
		return cfg
	}
	if cfg != cfg.Normalize() {
		d.fail("config %v not in normalized form", cfg)
		return cfg
	}
	if err := checkConfig(cfg); err != nil {
		d.fail("config: %v", err)
	}
	return cfg
}

func decodePayload(b []byte) (*Artifact, error) {
	d := &dec{buf: b}
	a := &Artifact{}

	// Hardware configuration.
	cfg := d.decodeConfig()
	if d.err != nil {
		return nil, d.err
	}

	// Compiler options.
	a.Options = d.decodeOptions()

	copy(a.Fingerprint[:], d.raw(len(a.Fingerprint)))

	// Graph.
	name := string(d.raw(d.count("graph name", 1)))
	numNodes := d.count("node", 1)
	if d.err != nil {
		return nil, d.err
	}
	if numNodes == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrCorrupt)
	}
	g := dag.New(name)
	// count() bounds numNodes by the bytes present, but a node costs ~50x
	// its 1-byte minimum encoding in arena memory — preallocating on the
	// claimed count alone would let a garbage file drive an allocation
	// ~50x its size before the first invalid byte is examined. Cap the
	// hint; a genuinely large graph grows geometrically as its real bytes
	// are consumed.
	g.Grow(min(numNodes, 1<<16))
	for i := 0; i < numNodes && d.err == nil; i++ {
		op := dag.Op(d.u8())
		switch op {
		case dag.OpInput:
			g.AddInput()
		case dag.OpConst:
			g.AddConst(d.f64())
		case dag.OpAdd, dag.OpMul:
			nargs := int(d.uvarint())
			if nargs < 1 || nargs > 2 {
				d.fail("node %d has %d args, want 1..2 (binary graph)", i, nargs)
				break
			}
			args := make([]dag.NodeID, nargs)
			for j := range args {
				arg := d.uvarint()
				if d.err != nil {
					break
				}
				if arg >= uint64(i) {
					d.fail("node %d references %d (not topologically earlier)", i, arg)
					break
				}
				args[j] = dag.NodeID(arg)
			}
			if d.err == nil {
				g.AddOp(op, args...)
			}
		default:
			d.fail("unknown op %d", uint8(op))
		}
	}
	if d.err != nil {
		return nil, d.err
	}

	// Remap (source-graph ids → binarized ids). Same amplification guard
	// as the node arena: append against the consumed bytes, not the
	// claimed count.
	numRemap := d.count("remap", 1)
	remap := make([]dag.NodeID, 0, min(numRemap, 1<<16))
	for i := 0; i < numRemap; i++ {
		id := d.uvarint()
		if d.err != nil {
			break
		}
		if id >= uint64(numNodes) {
			d.fail("remap[%d] = %d out of range", i, id)
			break
		}
		remap = append(remap, dag.NodeID(id))
	}

	// Input words: one per OpInput leaf, -1 for unconsumed inputs.
	inputWord := make([]int, len(g.Inputs()))
	for i := range inputWord {
		w := d.varint()
		if d.err != nil {
			break
		}
		if w < -1 || w >= int64(cfg.DataMemWords) {
			d.fail("input word %d out of range", w)
			break
		}
		inputWord[i] = int(w)
	}

	// Output words, exactly one per sink in graph-output order.
	outs := g.Outputs()
	outputWord := make(map[dag.NodeID]int, len(outs))
	for _, sink := range outs {
		w := d.varint()
		if d.err != nil {
			break
		}
		if w < 0 || w >= int64(cfg.DataMemWords) {
			d.fail("output word %d out of range", w)
			break
		}
		outputWord[sink] = int(w)
	}

	var stats compiler.Stats
	d.decodeStats(&stats)

	// Program.
	numInstrs := d.count("instruction", 1)
	packed := d.raw(d.count("packed byte", 1))
	initMem := make([]float64, d.count("memory word", 8))
	if d.err != nil {
		return nil, d.err
	}
	if len(initMem) > cfg.DataMemWords {
		return nil, fmt.Errorf("%w: memory image %d words exceeds data memory %d", ErrCorrupt, len(initMem), cfg.DataMemWords)
	}
	memBytes := d.raw(8 * len(initMem))
	if d.err != nil {
		return nil, d.err
	}
	for i := range initMem {
		initMem[i] = math.Float64frombits(binary.LittleEndian.Uint64(memBytes[8*i:]))
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, d.remaining())
	}
	// A corrupted count would make Unpack walk the packed stream far out
	// of proportion; bound it by the payload that actually carries it
	// (every instruction is at least an opcode, i.e. >0 bits).
	if numInstrs > 8*len(packed) {
		return nil, fmt.Errorf("%w: %d instructions cannot fit %d packed bytes", ErrCorrupt, numInstrs, len(packed))
	}
	instrs, err := arch.Unpack(packed, cfg, numInstrs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	prog := arch.NewProgram(cfg)
	for i, in := range instrs {
		if err := prog.Append(in); err != nil {
			return nil, fmt.Errorf("%w: instruction %d: %v", ErrCorrupt, i, err)
		}
	}
	// Canonical packing: don't-care padding bits must be zero and the
	// stream must end exactly where instruction numInstrs-1 does, so
	// re-encoding an accepted artifact is byte-identical.
	if !bytes.Equal(prog.Pack(), packed) {
		return nil, fmt.Errorf("%w: instruction stream not canonically packed", ErrCorrupt)
	}
	prog.InitMem = initMem

	a.Compiled = &compiler.Compiled{
		Prog:       prog,
		Graph:      g,
		Remap:      remap,
		InputWord:  inputWord,
		OutputWord: outputWord,
		Stats:      stats,
	}
	return a, nil
}

func (d *dec) decodeStats(s *compiler.Stats) {
	for _, p := range []*int{
		&s.Nodes, &s.Blocks, &s.Execs, &s.Copies, &s.CopiedWords, &s.InputConflicts,
		&s.OutputMoves, &s.Loads, &s.Stores, &s.SpillStores, &s.Reloads, &s.Nops,
		&s.Instructions, &s.Cycles,
	} {
		*p = int(d.varint())
	}
	s.PeakUtil = d.f64()
	s.MeanUtil = d.f64()
	s.CompileSeconds = d.f64()
}
