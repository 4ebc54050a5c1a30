package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/pc"
	"dpuv2/internal/sim"
	"dpuv2/internal/verify"
)

func TestStorePutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 1)
	k := a.Key()

	if _, err := st.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store Get: %v, want ErrNotFound", err)
	}
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != a.Fingerprint || got.Options != a.Options {
		t.Error("store round trip changed the artifact identity")
	}
	execute(t, got)
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}

// TestStoreKeyAddressing: distinct (graph, config, options) triples get
// distinct addresses; the same triple always maps to the same one.
func TestStoreKeyAddressing(t *testing.T) {
	a := testArtifact(t, 1)
	k := a.Key()
	if k2 := KeyFor(a.Fingerprint, a.Compiled.Prog.Cfg, a.Options); k2.ID() != k.ID() {
		t.Error("identical key hashed to a different address")
	}
	// Config normalization folds into the address: a zero DataMemWords
	// addresses the same artifact as the explicit default.
	implicit := KeyFor(a.Fingerprint, arch.Config{D: 2, B: 8, R: 16, Output: arch.OutPerLayer}, a.Options)
	if implicit.ID() != k.ID() {
		t.Error("normalized and unnormalized configs address different artifacts")
	}
	variants := []Key{
		KeyFor(testArtifact(t, 2).Fingerprint, a.Compiled.Prog.Cfg, a.Options),
		KeyFor(a.Fingerprint, arch.Config{D: 2, B: 8, R: 32, Output: arch.OutPerLayer}, a.Options),
		KeyFor(a.Fingerprint, a.Compiled.Prog.Cfg, compiler.Options{Seed: 99}),
	}
	seen := map[string]bool{k.ID(): true}
	for i, v := range variants {
		if seen[v.ID()] {
			t.Errorf("variant %d collides with a different key", i)
		}
		seen[v.ID()] = true
	}
}

// TestStorePutFirstWins: re-putting an existing key is a no-op, so a
// key's artifact is written exactly once even when many compilations
// race.
func TestStorePutFirstWins(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 1)
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	p := st.path(a.Key())
	first, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// A second artifact for the same key with different volatile content
	// (CompileSeconds differs run to run) must not replace the first.
	b := testArtifact(t, 1)
	b.Compiled.Stats.CompileSeconds = a.Compiled.Stats.CompileSeconds + 1
	if err := st.Put(b); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("second Put replaced the first artifact")
	}
}

// TestStoreGetRejectsMisfiledArtifact: a valid artifact parked under
// the wrong address (renamed file) must not be served for that key.
func TestStoreGetRejectsMisfiledArtifact(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := testArtifact(t, 1), testArtifact(t, 2)
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	// File b's content under a's address.
	eb, err := EncodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(a.Key()), eb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(a.Key()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misfiled artifact served: err = %v, want ErrCorrupt", err)
	}
}

// TestStoreSelfHealsAfterCorruption: a damaged file must not shadow its
// key forever — Get removes it, so the caller's recompile can persist a
// fresh artifact (Put is first-wins and would otherwise skip).
func TestStoreSelfHealsAfterCorruption(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 1)
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	p := st.path(a.Key())
	good, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(a.Key()); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted Get: %v, want ErrChecksum", err)
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Get did not remove the damaged file")
	}
	// The recompile's persist now lands instead of being skipped.
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(a.Key()); err != nil || got.Fingerprint != a.Fingerprint {
		t.Fatalf("store did not heal: %v", err)
	}
}

// TestStoreGetPreservesFutureVersions: an ErrVersion file is another
// binary's valid artifact (mixed-version fleet), not damage — Get must
// not delete it the way it deletes corruption.
func TestStoreGetPreservesFutureVersions(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 1)
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	p := st.path(a.Key())
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[8:], Version+1) // as a newer binary would write
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(a.Key()); !errors.Is(err, ErrVersion) {
		t.Fatalf("Get: %v, want ErrVersion", err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Error("Get removed a future-version artifact; a rolling deploy would erase the newer fleet's work")
	}
}

// TestStoreWalkSkipsForeignFiles: temp files, directories and
// non-artifact files in the store directory do not reach the callback;
// corrupt .dpuprog files surface their error rather than an artifact.
func TestStoreWalkSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testArtifact(t, 1)); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, tmpPrefix+"abandoned"), []byte("partial"), 0o644)
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not an artifact"), 0o644)
	os.WriteFile(filepath.Join(dir, "broken.dpuprog"), []byte("garbage"), 0o644)
	os.Mkdir(filepath.Join(dir, "subdir.dpuprog"), 0o755)

	var goodPaths, badPaths []string
	if err := st.Walk(func(p string, a *Artifact, err error) bool {
		if err != nil {
			badPaths = append(badPaths, filepath.Base(p))
		} else {
			goodPaths = append(goodPaths, filepath.Base(p))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(goodPaths) != 1 {
		t.Errorf("walked %v, want exactly the one stored artifact", goodPaths)
	}
	if len(badPaths) != 1 || badPaths[0] != "broken.dpuprog" {
		t.Errorf("bad files %v, want [broken.dpuprog]", badPaths)
	}
	for _, p := range append(goodPaths, badPaths...) {
		if strings.HasPrefix(p, tmpPrefix) {
			t.Errorf("walk visited temp file %s", p)
		}
	}
}

// TestStoreOpenSweepsTempFiles: leftovers from a crashed writer are
// removed by Open, artifacts are kept.
func TestStoreOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testArtifact(t, 1)); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, tmpPrefix+"123456")
	os.WriteFile(stale, []byte("half-written"), 0o644)
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("reopening the store did not sweep the stale temp file")
	}
	if n, _ := st.Len(); n != 1 {
		t.Errorf("sweep removed a real artifact: Len = %d", n)
	}
}

// TestStoreConcurrentPutGet runs Put and Get for the same keys from
// many goroutines under -race: every Get sees either ErrNotFound or a
// complete artifact, never a torn write.
func TestStoreConcurrentPutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arts := make([]*Artifact, 4)
	for i := range arts {
		arts[i] = testArtifact(t, int64(i+1))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := arts[(w+i)%len(arts)]
				if w%2 == 0 {
					if err := st.Put(a); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
				got, err := st.Get(a.Key())
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if got.Fingerprint != a.Fingerprint {
					t.Error("get returned the wrong artifact")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, err := st.Len(); err != nil || n != len(arts) {
		t.Errorf("store holds %d artifacts (%v), want %d", n, err, len(arts))
	}
}

// TestServingDecode: a serving decode keeps everything serving reads
// (identity, graph, maps, config, stats) and leaves out the instruction
// stream and memory image, and every consumer of that stream refuses
// the program rather than run it as an empty one: sim.Run, EncodeBytes
// and the verifier. The full decode of the same file passes all three.
func TestServingDecode(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 5)
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	k := a.Key()
	var asked []Digest
	served, err := st.GetServing(k, func(d Digest) bool { asked = append(asked, d); return true })
	if err != nil {
		t.Fatal(err)
	}
	full, err := st.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 1 || asked[0] != served.Digest || served.Digest != full.Digest || full.Digest == (Digest{}) {
		t.Fatalf("digests: asked %x, served %x, full %x; want one nonzero digest", asked, served.Digest, full.Digest)
	}
	if !served.Serving() || full.Serving() {
		t.Fatalf("Serving() = %v and %v, want true for the serving decode only", served.Serving(), full.Serving())
	}
	sc, fc := served.Compiled, full.Compiled
	if sc.Prog.Cfg != fc.Prog.Cfg || sc.Prog.W != fc.Prog.W || sc.Stats != fc.Stats || served.Key() != k {
		t.Errorf("serving decode lost the config, widths, stats or identity")
	}
	if sc.Graph.NumNodes() != fc.Graph.NumNodes() || !reflect.DeepEqual(sc.Remap, fc.Remap) ||
		!reflect.DeepEqual(sc.InputWord, fc.InputWord) || !reflect.DeepEqual(sc.OutputWord, fc.OutputWord) {
		t.Errorf("serving decode lost the graph or its maps")
	}
	if len(sc.Prog.Instrs) != 0 || sc.Prog.InitMem != nil {
		t.Errorf("serving decode carries %d instructions and %d memory words, want none", len(sc.Prog.Instrs), len(sc.Prog.InitMem))
	}

	inputs := make([]float64, len(fc.InputWord))
	for _, tc := range []struct {
		name   string
		c      *compiler.Compiled
		refuse bool
	}{{"serving", sc, true}, {"full", fc, false}} {
		_, runErr := sim.Run(tc.c, inputs)
		_, encErr := EncodeBytes(&Artifact{Fingerprint: a.Fingerprint, Options: a.Options, Compiled: tc.c})
		rejected := verify.HasErrors(verify.Compiled(tc.c))
		if (runErr != nil) != tc.refuse || (encErr != nil) != tc.refuse || rejected != tc.refuse {
			t.Errorf("%s decode: sim.Run %v, EncodeBytes %v, verifier rejects %v; want refused = %v",
				tc.name, runErr, encErr, rejected, tc.refuse)
		}
	}
}

// TestServingDecodeAllocationsFlat pins the one-arena graph build: a
// serving decode of a 4,800-node artifact allocates as many times as
// one of a 480-node artifact, within a small constant. Building the
// graph node by node allocated once more per interior node.
func TestServingDecodeAllocationsFlat(t *testing.T) {
	verified := func(Digest) bool { return true }
	allocs := func(nodes int) float64 {
		g := pc.Generate(pc.Config{Vars: 8, TargetNodes: nodes, TargetDepth: 12, SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: 1000})
		b, err := EncodeBytes(compileArtifact(t, g, arch.MinEDP(), compiler.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if a, err := decodeBytes(b, verified); err != nil || !a.Serving() {
				t.Fatalf("serving decode: %v", err)
			}
		})
	}
	small, large := allocs(480), allocs(4800)
	// Measured 13 at both sizes (go1.24). Building the graph node by
	// node added one allocation per interior node.
	if large > small+4 {
		t.Errorf("serving decode allocates %v times at 4,800 nodes, %v at 480", large, small)
	}
	t.Logf("%v allocations at 480 nodes, %v at 4,800", small, large)
}
