package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/sim"
	"dpuv2/internal/sptrsv"
)

// update regenerates the golden fixtures under testdata/:
//
//	go test ./internal/artifact -run TestGolden -update
//
// Regenerating is a conscious format change — see the versioning policy
// in the package comment.
var update = flag.Bool("update", false, "rewrite golden .dpuprog fixtures")

var testCfg = arch.Config{D: 2, B: 8, R: 16}

// testArtifact compiles a small deterministic DAG (structure varies
// with seed) into an artifact.
func testArtifact(t testing.TB, seed int64) *Artifact {
	t.Helper()
	g := testGraph(seed)
	return compileArtifact(t, g, testCfg, compiler.Options{})
}

func testGraph(seed int64) *dag.Graph {
	g := dag.New("artifact-test")
	rng := rand.New(rand.NewSource(seed))
	ids := []dag.NodeID{g.AddInput(), g.AddInput(), g.AddConst(1.5 + rng.Float64())}
	for i := 0; i < 24; i++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		op := dag.OpAdd
		if rng.Intn(2) == 0 {
			op = dag.OpMul
		}
		ids = append(ids, g.AddOp(op, a, b))
	}
	return g
}

func compileArtifact(t testing.TB, g *dag.Graph, cfg arch.Config, opts compiler.Options) *Artifact {
	t.Helper()
	c, err := compiler.Compile(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{Fingerprint: g.Fingerprint(), Options: opts, Compiled: c}
}

// execute runs an artifact's program with deterministic inputs and
// checks every sink bit-exactly against the reference evaluator.
func execute(t *testing.T, a *Artifact) {
	t.Helper()
	inputs := make([]float64, len(a.Compiled.Graph.Inputs()))
	rng := rand.New(rand.NewSource(7))
	for i := range inputs {
		inputs[i] = 0.25 + 0.75*rng.Float64()
	}
	res, err := sim.Run(a.Compiled, inputs)
	if err == nil {
		err = sim.CheckOutputs(a.Compiled, inputs, res, 0)
	}
	if err != nil {
		t.Fatalf("decoded program does not match the reference evaluator: %v", err)
	}
}

// TestRoundTrip: Decode(Encode(a)) preserves every field and
// Encode(Decode(x)) is byte-identical for valid x.
func TestRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := testArtifact(t, seed)
		b1, err := EncodeBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBytes(b1)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if got.Fingerprint != a.Fingerprint {
			t.Errorf("seed %d: fingerprint changed", seed)
		}
		if got.Options != a.Options {
			t.Errorf("seed %d: options %+v != %+v", seed, got.Options, a.Options)
		}
		if got.Compiled.Prog.Cfg != a.Compiled.Prog.Cfg {
			t.Errorf("seed %d: config changed", seed)
		}
		if got.Compiled.Stats != a.Compiled.Stats {
			t.Errorf("seed %d: stats %+v != %+v", seed, got.Compiled.Stats, a.Compiled.Stats)
		}
		if !reflect.DeepEqual(got.Compiled.Remap, a.Compiled.Remap) {
			t.Errorf("seed %d: remap changed", seed)
		}
		if !reflect.DeepEqual(got.Compiled.InputWord, a.Compiled.InputWord) {
			t.Errorf("seed %d: input words changed", seed)
		}
		if !reflect.DeepEqual(got.Compiled.OutputWord, a.Compiled.OutputWord) {
			t.Errorf("seed %d: output words changed", seed)
		}
		if !reflect.DeepEqual(got.Compiled.Prog.InitMem, a.Compiled.Prog.InitMem) {
			t.Errorf("seed %d: memory image changed", seed)
		}
		if !reflect.DeepEqual(got.Compiled.ConstWord, a.Compiled.ConstWord) || got.Compiled.Revision != a.Compiled.Revision {
			t.Errorf("seed %d: constant words or compiler revision changed", seed)
		}
		if !bytes.Equal(got.Compiled.Prog.Pack(), a.Compiled.Prog.Pack()) {
			t.Errorf("seed %d: packed instruction stream changed", seed)
		}
		execute(t, got)

		b2, err := EncodeBytes(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("seed %d: Encode(Decode(x)) != x", seed)
		}
	}
}

// TestRoundTripKAry: an artifact compiled from a k-ary source graph
// carries the source fingerprint and the binarization remap.
func TestRoundTripKAry(t *testing.T) {
	g := dag.New("kary")
	in := []dag.NodeID{g.AddInput(), g.AddInput(), g.AddInput(), g.AddConst(2)}
	g.AddOp(dag.OpMul, in...)
	a := compileArtifact(t, g, testCfg, compiler.Options{})
	b, err := EncodeBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != g.Fingerprint() {
		t.Error("artifact lost the source-graph fingerprint")
	}
	if len(got.Compiled.Remap) != g.NumNodes() {
		t.Errorf("remap has %d entries, source graph %d nodes", len(got.Compiled.Remap), g.NumNodes())
	}
	if got.Compiled.Graph.NumNodes() <= g.NumNodes() {
		t.Errorf("binarized graph (%d nodes) not larger than 4-ary source (%d)", got.Compiled.Graph.NumNodes(), g.NumNodes())
	}
	execute(t, got)
}

// TestDecodeTypedErrors drives every malformed-input class through
// Decode and asserts the documented typed error comes back.
func TestDecodeTypedErrors(t *testing.T) {
	valid, err := EncodeBytes(testArtifact(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:10], ErrTruncated},
		{"bad magic", mut(func(b []byte) []byte { b[0] ^= 0xff; return b }), ErrBadMagic},
		{"text file", []byte("definitely not a dpuprog artifact........"), ErrBadMagic},
		{"future version", mut(func(b []byte) []byte { b[8] = 0xfe; b[9] = 0xca; return b }), ErrVersion},
		{"version zero", mut(func(b []byte) []byte { b[8], b[9] = 0, 0; return b }), ErrVersion},
		{"truncated payload", valid[:len(valid)-5], ErrTruncated},
		{"trailing data", append(append([]byte(nil), valid...), 0), ErrCorrupt},
		{"flipped payload bit", mut(func(b []byte) []byte { b[headerSize+3] ^= 0x10; return b }), ErrChecksum},
		{"flipped checksum", mut(func(b []byte) []byte { b[10] ^= 1; return b }), ErrChecksum},
		{"payload length lies", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[14:], 1<<40)
			return b
		}), ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := DecodeBytes(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeCorruptPayloads re-checksums structurally invalid payloads
// so they reach the semantic decoder, which must reject each one as
// ErrCorrupt (and never panic); a case with a reason must be rejected
// for it.
func TestDecodeCorruptPayloads(t *testing.T) {
	a := testArtifact(t, 2)
	base, err := encodePayload(a)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		f      func(p []byte) []byte
		reason string
	}{
		{"empty payload", func(p []byte) []byte { return nil }, ""},
		{"invalid config D", func(p []byte) []byte { p[0] = 0x3f; return p }, ""},
		{"unknown topology", func(p []byte) []byte { p[3] = 99; return p }, ""},
		{"payload cut mid-graph", func(p []byte) []byte { return p[:len(p)/2] }, ""},
		{"garbage tail", func(p []byte) []byte { return append(p, 1, 2, 3) }, ""},
		// A compiled graph is binary: a 1-arg node is refused where it
		// stands, before the evaluator could meet it.
		{"1-arg node", func([]byte) []byte {
			var e enc
			e.identity(a.Compiled.Prog.Cfg, a.Options, compiler.Revision, a.Fingerprint)
			e.str("unary")
			e.uvarint(2)
			e.u8(uint8(dag.OpInput))
			e.u8(uint8(dag.OpAdd))
			e.uvarint(1)
			e.uvarint(0)
			return e.buf
		}, "node 1 has 1 args"},
	}
	for _, tc := range cases {
		p := tc.f(append([]byte(nil), base...))
		if _, err := decodePayload(p, false); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error %v, want ErrCorrupt %q", tc.name, err, tc.reason)
		}
	}
}

// TestDecodeCountAmplificationBounded: a garbage payload declaring a
// huge count must fail at its first invalid byte without first
// allocating what the count claims — the rejection of a crafted file
// stays proportional to the file, not to the lie it tells. Two lies are
// told: 4M one-byte nodes (~50 bytes of arena each), and a memory image
// of 2^24 words (128 MB) in front of a constant list that ends early.
func TestDecodeCountAmplificationBounded(t *testing.T) {
	a := testArtifact(t, 1)
	var e enc
	e.identity(a.Compiled.Prog.Cfg, a.Options, compiler.Revision, a.Fingerprint)
	e.str("amplified")
	const claimed = 4 << 20
	e.uvarint(claimed)                         // 4M nodes claimed...
	e.raw(bytes.Repeat([]byte{0xff}, claimed)) // ...backed by invalid op bytes

	cfg := testCfg
	cfg.DataMemWords = 1 << 24 // the largest data memory the format admits
	big := compileArtifact(t, testGraph(1), cfg, compiler.Options{})
	if len(big.Compiled.ConstWord) == 0 {
		t.Fatal("the graph has no constant: its list cannot end early")
	}

	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"node count", e.buf},
		{"image length", withTail(t, big, 1<<24, nil)},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := decodePayload(tc.payload, false); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v, want ErrCorrupt", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		// Unbounded preallocation would be ~200 MB for the nodes and 128 MB
		// for the image; the capped decoder stays within a few MB plus
		// noise.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Errorf("%s: rejecting the payload allocated %d MB", tc.name, alloc>>20)
		}
	}
}

// withTail returns a's payload with the program section's image length
// and constant words replaced by words and constWord, for tails that
// Encode would refuse to write.
func withTail(t testing.TB, a *Artifact, words uint64, constWord []int64) []byte {
	t.Helper()
	p, err := encodePayload(a)
	if err != nil {
		t.Fatal(err)
	}
	var tail enc
	tail.uvarint(uint64(len(a.Compiled.Prog.InitMem)))
	for _, w := range a.Compiled.ConstWord {
		tail.varint(int64(w))
	}
	e := enc{buf: p[:len(p)-len(tail.buf)]}
	e.uvarint(words)
	for _, w := range constWord {
		e.varint(w)
	}
	return e.buf
}

// badConstTails returns payloads of the pc golden program whose image
// length or constant words break the format's rules, each with the
// reason the decoder must give.
func badConstTails(t testing.TB) []struct {
	name, reason string
	payload      []byte
} {
	t.Helper()
	a := goldenSpecs(t)["pc_small.dpuprog"]
	c := a.Compiled
	words := uint64(len(c.Prog.InitMem))
	var cw []int64
	placed := 0 // constants with a word
	for _, w := range c.ConstWord {
		cw = append(cw, int64(w))
		if w >= 0 {
			placed++
		}
	}
	if len(cw) < 2 || cw[0] < 0 || cw[1] < 0 {
		t.Fatalf("the pc golden's first two constants are not both placed: %v", c.ConstWord)
	}
	with := func(i int, w int64) []int64 {
		out := slices.Clone(cw)
		out[i] = w
		return out
	}
	cfg := c.Prog.Cfg
	return []struct {
		name, reason string
		payload      []byte
	}{
		{"one constant word short", "bad varint", withTail(t, a, words, cw[:len(cw)-1])},
		{"one constant word extra", "unread payload bytes", withTail(t, a, words, append(slices.Clone(cw), -1))},
		{"word past the image", "outside [-1,", withTail(t, a, words, with(0, int64(words)))},
		{"word below -1", "outside [-1,", withTail(t, a, words, with(0, -2))},
		{"two constants at one word", "shares word", withTail(t, a, words, with(1, cw[0]))},
		{"image length not whole rows", "not whole", withTail(t, a, words+1, cw)},
		{"image length past data memory", "not whole", withTail(t, a, uint64(cfg.DataMemWords+cfg.B), cw)},
	}
}

// TestDecodeRejectsBadConstantWords: the decoder refuses, as ErrCorrupt
// and for its reason, every way an image length or constant list can
// break the format.
func TestDecodeRejectsBadConstantWords(t *testing.T) {
	for _, tc := range badConstTails(t) {
		if _, err := decodePayload(tc.payload, false); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error %v, want ErrCorrupt %q", tc.name, err, tc.reason)
		}
		if _, err := DecodeBytes(frame(tc.payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: framed, error %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// goldenSpecs pins the two fixture workloads: a small probabilistic
// circuit and a small sparse triangular solve, the paper's two workload
// families.
func goldenSpecs(t testing.TB) map[string]*Artifact {
	t.Helper()
	pcG := pc.Build(pc.Suite()[0], 0.01) // tretail at minimum size (64 nodes)
	spG, _ := sptrsv.Build(sptrsv.Suite()[0], 0.02)
	return map[string]*Artifact{
		"pc_small.dpuprog":     compileArtifact(t, pcG, testCfg, compiler.Options{}),
		"sptrsv_small.dpuprog": compileArtifact(t, spG, testCfg, compiler.Options{}),
	}
}

// TestGoldenFixtures decodes the checked-in .dpuprog files and executes
// them bit-exactly against the reference evaluator. If the payload
// layout changes, this test fails until Version is bumped and the
// fixtures are consciously regenerated with -update — the format cannot
// drift silently.
func TestGoldenFixtures(t *testing.T) {
	specs := goldenSpecs(t)
	if *update {
		for name, a := range specs {
			b, err := EncodeBytes(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote testdata/%s (%d bytes)", name, len(b))
		}
	}
	for name := range specs {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update after a conscious format change)", name, err)
		}
		a, err := DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v — a layout change must bump artifact.Version", name, err)
		}
		execute(t, a)
		// The fixture must also re-encode byte-identically: byte-level
		// stability is what lets replicas share artifacts across builds.
		b2, err := EncodeBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("%s: re-encoding the fixture changed its bytes", name)
		}
	}
}

// TestEncodeRejectsInvalid covers the encoder's own guards.
func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := EncodeBytes(&Artifact{}); err == nil {
		t.Error("encoded an artifact with no compiled program")
	}
	a := testArtifact(t, 3)
	broken := *a.Compiled
	broken.InputWord = broken.InputWord[:0]
	if len(a.Compiled.Graph.Inputs()) > 0 {
		if _, err := EncodeBytes(&Artifact{Compiled: &broken}); err == nil {
			t.Error("encoded an artifact with missing input words")
		}
	}
}

// TestEncodeRejectsUnderivableImage: Encode refuses a program whose
// memory image is not the one Decode derives from its constants, so no
// image content is dropped silently; likewise a constant list the
// decoder would reject.
func TestEncodeRejectsUnderivableImage(t *testing.T) {
	a := goldenSpecs(t)["pc_small.dpuprog"]
	c := a.Compiled
	isConst := make(map[int]bool)
	for _, w := range c.ConstWord {
		isConst[w] = true
	}
	free := -1
	for w := range c.Prog.InitMem {
		if !isConst[w] {
			free = w
			break
		}
	}
	if free < 0 || c.ConstWord[0] < 0 {
		t.Fatal("the program has no word outside its constants, or no placed first constant")
	}
	for _, tc := range []struct {
		name   string
		change func(c *compiler.Compiled)
		reason string
	}{
		{"non-constant word set", func(c *compiler.Compiled) { c.Prog.InitMem[free] = 1 }, "memory word"},
		{"non-constant word -0", func(c *compiler.Compiled) { c.Prog.InitMem[free] = math.Copysign(0, -1) }, "memory word"},
		{"constant word changed", func(c *compiler.Compiled) { c.Prog.InitMem[c.ConstWord[0]] += 1 }, "memory word"},
		{"constant word missing", func(c *compiler.Compiled) { c.ConstWord = c.ConstWord[1:] }, "constant words for"},
		{"two constants at one word", func(c *compiler.Compiled) { c.ConstWord[1] = c.ConstWord[0] }, "shares word"},
		{"image not whole rows", func(c *compiler.Compiled) { c.Prog.InitMem = c.Prog.InitMem[:len(c.Prog.InitMem)-1] }, "not whole"},
	} {
		bc, prog := *c, *c.Prog
		prog.InitMem = slices.Clone(prog.InitMem)
		bc.Prog, bc.ConstWord = &prog, slices.Clone(c.ConstWord)
		tc.change(&bc)
		if _, err := EncodeBytes(&Artifact{Fingerprint: a.Fingerprint, Compiled: &bc}); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.reason)
		}
	}
}

// TestArtifactBytesTableI bounds the format's size on the benchmark's
// offline corpus: the twelve Table I graphs at scale 0.1, compiled for
// the min-EDP point, encode to 667,587 bytes in all (format v2, which
// stored the dense memory image, took 856,798). The ceiling is 51 kB per
// job of the 13-job toolchain pass (twelve graphs and a sweep that
// encodes nothing). Each artifact must also decode to the memory image
// and constant words it was encoded from; as Encode refuses two
// constants at one word, this is also the check that the compiler never
// emits them.
func TestArtifactBytesTableI(t *testing.T) {
	var graphs []*dag.Graph
	for _, s := range pc.Suite() {
		graphs = append(graphs, pc.Build(s, 0.1))
	}
	for _, s := range sptrsv.Suite() {
		g, _ := sptrsv.Build(s, 0.1)
		graphs = append(graphs, g)
	}
	total := 0
	for _, g := range graphs {
		name := g.Name
		a := compileArtifact(t, g, arch.MinEDP(), compiler.Options{})
		b, err := EncodeBytes(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Compiled.ConstWord, a.Compiled.ConstWord) ||
			!slices.EqualFunc(got.Compiled.Prog.InitMem, a.Compiled.Prog.InitMem, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
			t.Errorf("%s: the decoded memory image or constant words differ from the compiled ones", name)
		}
		total += len(b)
	}
	if limit := 51 * 1024 * 13; total > limit {
		t.Errorf("the twelve Table I artifacts take %d bytes, above the %d-byte ceiling", total, limit)
	}
	t.Logf("the twelve Table I artifacts take %d bytes", total)
}

// TestEncodeDecodeBoundsAgree: Encode must refuse exactly what Decode
// would reject — otherwise the engine persists an artifact that can
// never be read back and its key recompiles forever.
func TestEncodeDecodeBoundsAgree(t *testing.T) {
	base := testArtifact(t, 3)
	bad := &Artifact{Fingerprint: base.Fingerprint, Options: compiler.Options{PartitionSize: -1}, Compiled: base.Compiled}
	if _, err := EncodeBytes(bad); err == nil {
		t.Errorf("encoded options Decode would reject: %+v", bad.Options)
	}
	// And the largest value Encode accepts must decode.
	edge := &Artifact{
		Fingerprint: base.Fingerprint,
		Options:     compiler.Options{PartitionSize: 1<<31 - 1},
		Compiled:    base.Compiled,
	}
	b, err := EncodeBytes(edge)
	if err != nil {
		t.Fatalf("edge options did not encode: %v", err)
	}
	if _, err := DecodeBytes(b); err != nil {
		t.Fatalf("edge options did not decode: %v", err)
	}
	// Config bounds agree too: an over-limit register file must fail at
	// encode, not produce a file every reader rejects.
	huge := *base.Compiled
	prog := *huge.Prog
	prog.Cfg.B = 1 << 11 // past arch's 2^10-bank bound
	huge.Prog = &prog
	if _, err := EncodeBytes(&Artifact{Fingerprint: base.Fingerprint, Compiled: &huge}); err == nil {
		t.Error("encoded a config beyond the format's register-file limit")
	}
}

// TestDecodeRejectsAbsurdConfigBeforeAllocating: a tiny crafted payload
// claiming a terabyte-scale register file must fail with a typed error
// at the config check — instruction decode allocates per-instruction
// slices proportional to B, so reaching it would abort the process, not
// return an error. The payload holds only the config, so any later
// check would fail too, on truncation: the error must name the config.
func TestDecodeRejectsAbsurdConfigBeforeAllocating(t *testing.T) {
	for _, cfg := range []arch.Config{
		{D: 1, B: 1 << 40, R: 2, DataMemWords: 1 << 18},
		{D: 1, B: 2, R: 1 << 40, DataMemWords: 1 << 18},
		{D: 1, B: 2, R: 2, DataMemWords: 1 << 40},
		// Past the serving bound, which /execute rejects, though an
		// allocation this size would succeed.
		{D: 3, B: 64, R: 32, DataMemWords: 1 << 25},
	} {
		var e enc
		e.config(cfg)
		if _, err := decodePayload(e.buf, false); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "config: ") {
			t.Errorf("config %v: error %v, want ErrCorrupt at the config check", cfg, err)
		}
	}
}
