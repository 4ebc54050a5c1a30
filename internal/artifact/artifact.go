// Package artifact defines the versioned on-disk form of a compiled
// DPU-v2 program — the `.dpuprog` file — and a content-addressed store
// of them (store.go). Together they turn compilation into a true
// offline step: `dpu-compile` emits an artifact once, any number of
// `dpu-serve` processes warm-start from the store and never compile the
// graph again.
//
// An artifact is self-describing: it carries the hardware configuration
// and compiler options it was built for, the source
// graph's content fingerprint — exactly the serving engine's cache key
// — and everything needed to execute: the binarized graph, the node
// remapping, the input/output data-memory map, the compile statistics
// and the densely packed instruction stream plus initial memory image.
//
// File layout (all multi-byte header fields little-endian):
//
//	offset  size  field
//	0       8     magic "\x7fDPUPROG"
//	8       2     format version (currently 2)
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
// The program comes last, so a reader that needs only what serving a
// request reads (identity, graph, maps, stats) can stop before it:
// Store.GetServing does that for payloads its caller has verified
// before, named by their SHA-256 Digest, and the program it returns
// refuses to run or encode (compiler.Compiled.CheckProgram).
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
	"crypto/sha256"
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
const Version = 2

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

// Digest is the SHA-256 of an artifact's payload, the bytes its
// checksum covers: two images with one digest decode to the same
// artifact, so a verdict about one holds for the other.
type Digest [sha256.Size]byte

// Artifact is one compiled program with its content address: the
// serving engine keys its cache on (Fingerprint, Compiled.Prog.Cfg,
// Options), and the artifact carries all three so a store can be
// rebuilt from the files alone.
type Artifact struct {
	// Fingerprint is the content hash of the *source* graph — the graph
	// the client submits — which may differ from Compiled.Graph's own
	// fingerprint when binarization rewrote it.
	Fingerprint dag.Fingerprint
	// Options are the compiler options the program was built with.
	Options compiler.Options
	// Compiled is the runnable program: instructions, memory image,
	// binarized graph and data-memory maps. A serving decode leaves out
	// the instructions and memory image (see Serving).
	Compiled *compiler.Compiled
	// Digest names the payload the artifact was decoded from; it is
	// zero for an artifact built in memory, and EncodeBytes ignores it.
	Digest Digest

	serving bool
}

// Serving reports whether a came from a serving decode
// (Store.GetServing): its Compiled.Prog holds only Cfg and W, with
// fewer instructions than Compiled.Stats counts. sim.Run,
// verify.Compiled and EncodeBytes all refuse such a program; serving
// reads only its graph, maps, config and stats.
func (a *Artifact) Serving() bool { return a.serving }

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
func DecodeBytes(b []byte) (*Artifact, error) { return decodeBytes(b, nil) }

// decodeBytes checks b's header and checksum, digests the payload and
// decodes it, fully unless serving is non-nil and reports true for the
// digest, in which case it takes the serving decode (see decodePayload).
func decodeBytes(b []byte, serving func(Digest) bool) (*Artifact, error) {
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
	digest := Digest(sha256.Sum256(rest))
	a, err := decodePayload(rest, serving != nil && serving(digest))
	if err != nil {
		return nil, err
	}
	a.Digest = digest
	return a, nil
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
	e.varint(int64(o.PartitionSize))
}

// checkOptions enforces the decoder's option bounds at encode time, so
// Encode can never produce a payload Decode rejects (a
// persisted-but-undecodable artifact would put its key in an endless
// recompile/re-persist cycle).
func checkOptions(o compiler.Options) error {
	if o.PartitionSize < 0 || o.PartitionSize > math.MaxInt32 {
		return fmt.Errorf("artifact: compiler option partition size %d outside the encodable range [0,%d]", o.PartitionSize, math.MaxInt32)
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
	if err := checkOptions(a.Options); err != nil {
		return nil, err
	}
	if err := c.CheckProgram(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	cfg := c.Prog.Cfg
	if err := cfg.CheckBounds(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	var e enc
	e.config(cfg)
	e.options(a.Options)
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

// decodeOptions reads the compiler-options section.
func (d *dec) decodeOptions() compiler.Options {
	var opts compiler.Options
	opts.Seed = d.varint()
	opts.RandomBanks = d.boolean()
	opts.PartitionSize = d.intNonNeg("partition size", math.MaxInt32)
	return opts
}

// decodeConfig reads the config section and validates it into
// normalized, machine-size-bounded form.
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
	// Instruction decode allocates per-instruction slices proportional
	// to B before reading any bits, so a config past the machine-size
	// bound is corruption to reject here, not a large allocation to
	// attempt.
	if err := cfg.CheckBounds(); err != nil {
		d.fail("config: %v", err)
	}
	return cfg
}

// decodePayload decodes a checksummed payload. A full decode reads it
// all and unpacks the program; a serving decode (serving true) stops
// after the stats and leaves Compiled.Prog with only Cfg and W: the
// instruction count, packed stream and memory image are never read, so
// the decode costs what serving a request reads (graph, maps, stats),
// not what running the program on the machine would. It is the same
// decoder up to that point, with every check, so it accepts every
// payload the full decode does. A program whose stats count no
// instructions is decoded whole, its memory image being all it has, so
// a serving-decoded program always lacks instructions its stats count.
func decodePayload(b []byte, serving bool) (*Artifact, error) {
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
	g, numInputs := d.decodeGraph(name, numNodes)
	if d.err != nil {
		return nil, d.err
	}

	// Remap (source-graph ids → binarized ids). The claimed count is
	// bounded by the payload, not by the node count, so append against
	// the consumed bytes rather than preallocate on the claim.
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
	inputWord := make([]int, numInputs)
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
	if d.err != nil {
		return nil, d.err
	}
	a.Compiled = &compiler.Compiled{
		Prog:       arch.NewProgram(cfg),
		Graph:      g,
		Remap:      remap,
		InputWord:  inputWord,
		OutputWord: outputWord,
		Stats:      stats,
	}
	a.serving = serving && stats.Instructions != 0
	if a.serving {
		return a, nil
	}
	if err := d.decodeProgram(a.Compiled.Prog, stats.Instructions); err != nil {
		return nil, err
	}
	return a, nil
}

// decodeGraph reads the binarized graph's n nodes in id (topological)
// order and counts its inputs. A first pass checks every node and
// counts the inputs and interior nodes; the second fills the node
// arena and one argument list, each allocated at its final length, as
// dag.Parsed.Graph builds a parsed graph. The arena is sized only after
// the bytes proved to hold n valid nodes, so a garbage count cannot
// drive the allocation.
func (d *dec) decodeGraph(name string, n int) (g *dag.Graph, inputs int) {
	start, interior := d.off, 0
	for i := 0; i < n && d.err == nil; i++ {
		switch op := dag.Op(d.u8()); op {
		case dag.OpInput:
			inputs++
		case dag.OpConst:
			d.f64()
		case dag.OpAdd, dag.OpMul:
			if nargs := d.uvarint(); d.err == nil && nargs != 2 {
				d.fail("node %d has %d args, want 2 (binary graph)", i, nargs)
			}
			for range 2 {
				if arg := d.uvarint(); d.err == nil && arg >= uint64(i) {
					d.fail("node %d references %d (not topologically earlier)", i, arg)
				}
			}
			interior++
		default:
			d.fail("unknown op %d", uint8(op))
		}
	}
	if d.err != nil {
		return nil, 0
	}
	d.off = start
	nodes := make([]dag.Node, n)
	args := make([]dag.NodeID, 2*interior)
	for i := range nodes {
		nd := &nodes[i]
		nd.Op = dag.Op(d.u8())
		switch nd.Op {
		case dag.OpConst:
			nd.Val = d.f64()
		case dag.OpAdd, dag.OpMul:
			d.uvarint() // the arity, 2
			args[0], args[1] = dag.NodeID(d.uvarint()), dag.NodeID(d.uvarint())
			nd.Args, args = args[:2:2], args[2:]
		}
	}
	g, err := dag.FromNodes(name, nodes)
	if err != nil {
		d.fail("graph: %v", err)
	}
	return g, inputs
}

// decodeProgram reads the program tail into prog: the instruction
// count, which must equal the stats' count (EncodeBytes refuses a
// program whose stream and stats disagree, so the canonical decoder
// does too), the canonically packed stream and the memory image. It
// ends the payload.
func (d *dec) decodeProgram(prog *arch.Program, instructions int) error {
	cfg := prog.Cfg
	numInstrs := d.count("instruction", 1)
	packed := d.raw(d.count("packed byte", 1))
	initMem := make([]float64, d.count("memory word", 8))
	if d.err != nil {
		return d.err
	}
	if numInstrs != instructions {
		return fmt.Errorf("%w: %d instructions, stats count %d", ErrCorrupt, numInstrs, instructions)
	}
	if len(initMem) > cfg.DataMemWords {
		return fmt.Errorf("%w: memory image %d words exceeds data memory %d", ErrCorrupt, len(initMem), cfg.DataMemWords)
	}
	memBytes := d.raw(8 * len(initMem))
	if d.err != nil {
		return d.err
	}
	for i := range initMem {
		initMem[i] = math.Float64frombits(binary.LittleEndian.Uint64(memBytes[8*i:]))
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, d.remaining())
	}
	// A corrupted count would make Unpack walk the packed stream far out
	// of proportion; bound it by the payload that actually carries it
	// (every instruction is at least an opcode, i.e. >0 bits).
	if numInstrs > 8*len(packed) {
		return fmt.Errorf("%w: %d instructions cannot fit %d packed bytes", ErrCorrupt, numInstrs, len(packed))
	}
	instrs, err := arch.Unpack(packed, cfg, numInstrs)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i, in := range instrs {
		if err := prog.Append(in); err != nil {
			return fmt.Errorf("%w: instruction %d: %v", ErrCorrupt, i, err)
		}
	}
	// Canonical packing: don't-care padding bits must be zero and the
	// stream must end exactly where instruction numInstrs-1 does, so
	// re-encoding an accepted artifact is byte-identical.
	if !bytes.Equal(prog.Pack(), packed) {
		return fmt.Errorf("%w: instruction stream not canonically packed", ErrCorrupt)
	}
	prog.InitMem = initMem
	return nil
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
