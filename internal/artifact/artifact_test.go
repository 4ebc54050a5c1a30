package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

var testCfg = arch.Config{D: 2, B: 8, R: 16, Output: arch.OutPerLayer}

// testArtifact compiles a small deterministic DAG (structure varies
// with seed) into an artifact.
func testArtifact(t testing.TB, seed int64) *Artifact {
	t.Helper()
	g := testGraph(seed)
	return compileArtifact(t, g, testCfg, compiler.Options{Seed: seed})
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
			e.config(a.Compiled.Prog.Cfg)
			e.options(a.Options)
			e.raw(a.Fingerprint[:])
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
// huge node count must fail at its first invalid byte without first
// preallocating ~50 bytes of arena per claimed 1-byte node — the
// rejection of a crafted multi-megabyte file stays proportional to the
// file, not to the lie it tells.
func TestDecodeCountAmplificationBounded(t *testing.T) {
	a := testArtifact(t, 1)
	var e enc
	e.config(a.Compiled.Prog.Cfg)
	e.options(a.Options)
	e.raw(a.Fingerprint[:])
	e.str("amplified")
	const claimed = 4 << 20
	e.uvarint(claimed)                         // 4M nodes claimed...
	e.raw(bytes.Repeat([]byte{0xff}, claimed)) // ...backed by invalid op bytes
	payload := e.buf

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := decodePayload(payload, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	// Unbounded preallocation would be ~200 MB (4M nodes × ~50 B); the
	// capped decoder stays within a few MB plus noise.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("rejecting the payload allocated %d MB", alloc>>20)
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
		"pc_small.dpuprog":     compileArtifact(t, pcG, testCfg, compiler.Options{Seed: 7}),
		"sptrsv_small.dpuprog": compileArtifact(t, spG, testCfg, compiler.Options{Seed: 7}),
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
		{D: 1, B: 1 << 40, R: 2, Output: arch.OutPerLayer, DataMemWords: 1 << 18, ClockMHz: 300},
		{D: 1, B: 2, R: 1 << 40, Output: arch.OutPerLayer, DataMemWords: 1 << 18, ClockMHz: 300},
		{D: 1, B: 2, R: 2, Output: arch.OutPerLayer, DataMemWords: 1 << 40, ClockMHz: 300},
		// Past the serving bound, which /execute rejects, though an
		// allocation this size would succeed.
		{D: 3, B: 64, R: 32, Output: arch.OutPerLayer, DataMemWords: 1 << 25, ClockMHz: 300},
	} {
		var e enc
		e.config(cfg)
		if _, err := decodePayload(e.buf, false); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "config: ") {
			t.Errorf("config %v: error %v, want ErrCorrupt at the config check", cfg, err)
		}
	}
}
