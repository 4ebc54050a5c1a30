package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/sim"
)

func openStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeLen counts the artifact files in st.
func storeLen(st *artifact.Store) (int, error) {
	n := 0
	err := st.Walk(func(string, *artifact.Artifact, error) bool { n++; return true })
	return n, err
}

// newStoreEngine is New for an engine over a test's temporary store. It
// waits for the engine's async artifact persists at cleanup, which runs
// before the TempDir behind the store is removed, so a late write cannot
// fail that removal with "directory not empty".
func newStoreEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	t.Cleanup(e.Flush)
	return e
}

// TestStoreBackedCompilePersistsAndRehydrates: a compile miss persists
// an artifact; a second engine sharing the store answers the same miss
// by decoding instead of compiling, bit-exactly.
func TestStoreBackedCompilePersistsAndRehydrates(t *testing.T) {
	st := openStore(t)
	g := testGraph(1)
	opts := compiler.Options{PartitionSize: 64}

	e1 := newStoreEngine(t, Options{Store: st})
	c1, err := e1.Compile(g, testCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1.Flush()
	s1 := e1.Stats()
	if s1.StoreMisses != 1 || s1.StoreHits != 0 {
		t.Fatalf("first engine: store hits/misses = %d/%d, want 0/1", s1.StoreHits, s1.StoreMisses)
	}
	if n, err := storeLen(st); err != nil || n != 1 {
		t.Fatalf("store holds %d artifacts (%v), want 1", n, err)
	}

	e2 := newStoreEngine(t, Options{Store: st})
	c2, err := e2.Compile(g, testCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats()
	if s2.StoreHits != 1 || s2.StoreMisses != 0 {
		t.Fatalf("second engine: store hits/misses = %d/%d, want 1/0", s2.StoreHits, s2.StoreMisses)
	}
	if s2.StoreErrors != 0 {
		t.Fatalf("store errors: %d", s2.StoreErrors)
	}
	// The rehydrated program is the same program: identical packed
	// stream, identical memory image, identical execution.
	if got, want := fmt.Sprintf("%x", c2.Prog.Pack()), fmt.Sprintf("%x", c1.Prog.Pack()); got != want {
		t.Error("decoded program's packed stream differs from the compiled one")
	}
	inputs := testInputs(g, 1.25)
	r1, err := executeOne(e1, c1, inputs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := executeOne(e2, c2, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for sink, v := range r1.Outputs {
		if r2.Outputs[sink] != v {
			t.Errorf("sink %d: decoded %v, compiled %v", sink, r2.Outputs[sink], v)
		}
	}
	if err := sim.CheckOutputs(c2, inputs, r2, 0); err != nil {
		t.Errorf("decoded program vs reference evaluator: %v", err)
	}
}

// TestPreloadWarmStart: Preload fills the cache from the store, so a
// restarted engine's first Compile is a pure cache hit — zero compile
// misses, which is the warm-start acceptance criterion.
func TestPreloadWarmStart(t *testing.T) {
	st := openStore(t)
	const graphs = 5
	e1 := newStoreEngine(t, Options{Store: st})
	for i := 0; i < graphs; i++ {
		if _, err := e1.Compile(testGraph(int64(i)), testCfg, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()

	// "Restart": a fresh engine over the same directory.
	e2 := newStoreEngine(t, Options{Store: st})
	n, err := e2.Preload()
	if err != nil {
		t.Fatal(err)
	}
	if n != graphs {
		t.Fatalf("preloaded %d artifacts, want %d", n, graphs)
	}
	if s := e2.Stats(); s.Preloaded != graphs || s.Cached != graphs {
		t.Fatalf("stats after preload: %+v", s)
	}
	// Preloading again is idempotent.
	if n, err := e2.Preload(); err != nil || n != 0 {
		t.Fatalf("second preload loaded %d (%v), want 0", n, err)
	}
	for i := 0; i < graphs; i++ {
		g := testGraph(int64(i))
		c, err := e2.Compile(g, testCfg, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inputs := testInputs(g, 0.75)
		res, err := executeOne(e2, c, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.CheckOutputs(c, inputs, res, 0); err != nil {
			t.Errorf("graph %d after warm start: %v", i, err)
		}
	}
	s := e2.Stats()
	if s.Misses != 0 {
		t.Errorf("warm-started engine compiled %d times, want 0", s.Misses)
	}
	if s.Hits != graphs {
		t.Errorf("hits = %d, want %d", s.Hits, graphs)
	}
}

// leftoverDecision is a complete .dputune record (a per-fingerprint
// autotuning decision, a format this build no longer reads or writes)
// as older builds left it in a store directory.
const leftoverDecision = "7f44505554554e45020003f1f9b787000000000000004d5a28d14a3caa63cd9dbd" +
	"f15cace8e2bb9b2b38198409ab0450f4a4f61a706703408001008080100000000000" +
	"c072400000d804203000000000000000f03f076c6174656e63790340200180801000" +
	"00000000c072400000000000000040303000000a6470752d74756e652f3204677269" +
	"64000000000000000000000000000000000000000000"

// TestPreloadIgnoresLeftoverDecisionFile is the upgrade path for a store
// directory an older build also wrote .dputune decisions into: Open
// leaves the file alone, and Preload loads every program without
// counting the stranger as store damage.
func TestPreloadIgnoresLeftoverDecisionFile(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const graphs = 3
	e1 := newStoreEngine(t, Options{Store: st})
	for i := 0; i < graphs; i++ {
		if _, err := e1.Compile(testGraph(int64(i)), testCfg, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	rec, err := hex.DecodeString(leftoverDecision)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "4d5a28d14a3caa63cd9dbdf15cace8e2bb9b2b38198409ab0450f4a4f61a7067.dputune")
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}

	if st, err = artifact.Open(dir); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, rec) {
		t.Fatalf("Open disturbed the leftover decision file (err %v)", err)
	}
	e2 := newStoreEngine(t, Options{Store: st})
	n, err := e2.Preload()
	if err != nil {
		t.Fatal(err)
	}
	if s := e2.Stats(); n != graphs || s.Preloaded != graphs || s.StoreErrors != 0 {
		t.Errorf("Preload loaded %d (stats %+v), want %d programs and 0 store errors", n, s, graphs)
	}
}

// TestPreloadRespectsCacheBound: preloading from a store larger than
// the cache stops at the bound — no wasted decodes, and the reported
// count matches what is actually resident.
func TestPreloadRespectsCacheBound(t *testing.T) {
	st := openStore(t)
	e1 := newStoreEngine(t, Options{Store: st})
	for i := 0; i < 6; i++ {
		if _, err := e1.Compile(testGraph(int64(i)), testCfg, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	e1.Flush()
	e2 := newStoreEngine(t, Options{Store: st, CacheSize: 3})
	n, err := e2.Preload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Preload returned %d, want the CacheSize bound 3", n)
	}
	s := e2.Stats()
	if s.Cached != 3 {
		t.Errorf("cached = %d, want the CacheSize bound 3", s.Cached)
	}
	if s.Preloaded != 3 {
		t.Errorf("preloaded = %d, want 3 (walk stops at the bound)", s.Preloaded)
	}
}

// TestPreloadToleratesOtherFormatVersions: a shared store may hold
// artifacts written by binaries with a newer format; a warm-starting
// engine skips them without raising the damage counter (they are valid,
// just not ours) and still loads everything it can read.
func TestPreloadToleratesOtherFormatVersions(t *testing.T) {
	st := openStore(t)
	e1 := newStoreEngine(t, Options{Store: st})
	if _, err := e1.Compile(testGraph(1), testCfg, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	e1.Flush()
	// Re-stamp a copy of the artifact as the next format version under
	// another name.
	var src string
	st.Walk(func(p string, a *artifact.Artifact, err error) bool { src = p; return false })
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	b = append([]byte(nil), b...)
	binary.LittleEndian.PutUint16(b[8:], artifact.Version+1)
	future := filepath.Join(filepath.Dir(src), "future"+artifact.Ext)
	if err := os.WriteFile(future, b, 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := newStoreEngine(t, Options{Store: st})
	n, err := e2.Preload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("preloaded %d, want 1 (the readable artifact)", n)
	}
	if s := e2.Stats(); s.StoreErrors != 0 {
		t.Errorf("a future-version neighbor raised the damage counter: %+v", s)
	}
	if _, err := os.Stat(future); err != nil {
		t.Error("preload removed the future-version artifact")
	}
}

// TestUpgradeFromV1Store (named when v1 was the only older format): a
// store written by a build of an older format (v1, whose options
// carried three more fields; v2, which stored the dense memory image;
// v3, whose config carried a clock and options a seed; v4, which
// numbered the crossbar output topology 0) is skipped, not counted as
// damage. For each, Open leaves the old file alone, Preload caches
// nothing and raises no error, and the first request for the file's
// graph compiles once and persists a current artifact at its own key
// beside the untouched old file.
func TestUpgradeFromV1Store(t *testing.T) {
	// The graph and config every old fixture was compiled from. The old
	// fixtures' options also held a seed (7), which options no longer
	// carry: their programs are still legal, under a key no request forms.
	g := pc.Build(pc.Suite()[0], 0.01)
	cfg := arch.Config{D: 2, B: 8, R: 16}
	opts := compiler.Options{}
	for _, version := range []string{"v1", "v2", "v3", "v4"} {
		t.Run(version, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("..", "artifact", "testdata", version, "pc_small.dpuprog"))
			if err != nil {
				t.Fatal(err)
			}
			if fp := g.Fingerprint(); !bytes.Contains(old, fp[:]) {
				t.Fatalf("the %s fixture was not compiled from this graph", version)
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "pc_small"+artifact.Ext)
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			unchanged := func(when string) {
				t.Helper()
				if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, old) {
					t.Fatalf("%s: the %s file changed (err %v)", when, version, err)
				}
			}
			st, err := artifact.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			unchanged("after Open")

			e := newStoreEngine(t, Options{Store: st})
			if n, err := e.Preload(); err != nil || n != 0 {
				t.Fatalf("Preload cached %d programs (err %v), want 0", n, err)
			}
			if s := e.Stats(); s.StoreErrors != 0 {
				t.Fatalf("a %s file raised the damage counter: %+v", version, s)
			}
			if _, err := e.Compile(g, cfg, opts); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			if s := e.Stats(); s.Misses != 1 || s.StoreMisses != 1 || s.StoreErrors != 0 {
				t.Errorf("first request: misses %d, store misses %d, store errors %d; want 1, 1, 0", s.Misses, s.StoreMisses, s.StoreErrors)
			}
			a, err := st.GetServing(artifact.KeyFor(g.Fingerprint(), cfg, opts), nil)
			if err != nil {
				t.Fatalf("no current artifact persisted at the new key: %v", err)
			}
			if a.Options != opts || a.Compiled.Revision != compiler.Revision {
				t.Errorf("persisted options %+v, revision %d; want %+v, %d", a.Options, a.Compiled.Revision, opts, compiler.Revision)
			}
			if n, err := storeLen(st); err != nil || n != 2 {
				t.Errorf("store holds %d artifacts (%v), want the %s file and the new one", n, err, version)
			}
			unchanged("after the recompile")
		})
	}
}

// TestPreloadSkipsStaleRevision: an artifact another compiler revision
// built is a legal program under a key no request of this build forms.
// Preload skips it, counts it in StoreStale and not in StoreErrors, and
// leaves the file as it was; the current artifact beside it loads.
func TestPreloadSkipsStaleRevision(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(poisonedArtifact(t, testGraph(1), func(*dag.Graph, *compiler.Compiled) {})); err != nil {
		t.Fatal(err)
	}
	stale, err := artifact.EncodeBytes(poisonedArtifact(t, testGraph(2), func(_ *dag.Graph, c *compiler.Compiled) {
		c.Revision = compiler.Revision + 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stale"+artifact.Ext)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	e := newStoreEngine(t, Options{Store: st})
	if n, err := e.Preload(); err != nil || n != 1 {
		t.Fatalf("Preload cached %d programs (err %v), want 1", n, err)
	}
	if s := e.Stats(); s.StoreStale != 1 || s.StoreErrors != 0 || s.Preloaded != 1 {
		t.Errorf("store stale %d, store errors %d, preloaded %d; want 1, 0, 1", s.StoreStale, s.StoreErrors, s.Preloaded)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, stale) {
		t.Errorf("the stale file changed (err %v)", err)
	}
}

// TestCorruptArtifactFallsBackToCompile: a damaged store never breaks
// serving — the engine recompiles and counts the error.
func TestCorruptArtifactFallsBackToCompile(t *testing.T) {
	dir := t.TempDir()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(9)
	key := artifact.KeyFor(g.Fingerprint(), testCfg, compiler.Options{})
	// Plant garbage at exactly the address the engine will probe.
	if err := os.WriteFile(filepath.Join(dir, key.ID()+artifact.Ext), []byte("rotten bits"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newStoreEngine(t, Options{Store: st})
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.StoreErrors != 1 {
		t.Errorf("store errors = %d, want 1", s.StoreErrors)
	}
	inputs := testInputs(g, 1.5)
	res, err := executeOne(e, c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckOutputs(c, inputs, res, 0); err != nil {
		t.Errorf("fallback compile: %v", err)
	}
	// The store self-heals: the bad file was evicted on read and the
	// fallback compilation's persist replaced it, so the *next* restart
	// decodes instead of compiling again.
	e.Flush()
	if a, err := st.GetServing(key, nil); err != nil {
		t.Errorf("store did not heal after the fallback compile: %v", err)
	} else if a.Fingerprint != g.Fingerprint() {
		t.Error("healed artifact carries the wrong fingerprint")
	}
}

// poisons are the remaps an internally consistent artifact can carry
// that do not serve the graph it claims to: one entry short (it would
// index out of range on the serving hot path if trusted), and full
// length with a sink pointed at an interior node (it would answer with
// the wrong value).
var poisons = []struct {
	name   string
	poison func(g *dag.Graph, c *compiler.Compiled)
}{
	{"short", func(g *dag.Graph, c *compiler.Compiled) { c.Remap = c.Remap[:len(c.Remap)-1] }},
	{"sink-to-interior", func(g *dag.Graph, c *compiler.Compiled) {
		for id := range c.Graph.NumNodes() {
			n := dag.NodeID(id)
			if !c.Graph.Op(n).IsLeaf() && len(c.Graph.Succs(n)) > 0 {
				c.Remap[g.Outputs()[0]] = n
				return
			}
		}
		panic("compiled graph has no interior non-sink node")
	}},
}

// poisonedArtifact builds an internally consistent artifact for g whose
// remap has been poisoned.
func poisonedArtifact(t *testing.T, g *dag.Graph, poison func(*dag.Graph, *compiler.Compiled)) *artifact.Artifact {
	t.Helper()
	c, err := compiler.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	poison(g, c)
	return &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: compiler.Options{}, Compiled: c}
}

// checkHealed fails t unless the store's artifact for g serves g.
func checkHealed(t *testing.T, st *artifact.Store, g *dag.Graph) {
	t.Helper()
	key := artifact.KeyFor(g.Fingerprint(), testCfg, compiler.Options{})
	if a, err := st.GetServing(key, nil); err != nil {
		t.Errorf("store did not heal: %v", err)
	} else if !servesGraph(g, a.Compiled) {
		t.Error("healed artifact still carries the poisoned remap")
	}
}

// TestPoisonedRemapRejectedOnStoreHit: an artifact whose remap does not
// serve the request graph is purged and transparently recompiled on the
// miss path — never served, never a panic.
func TestPoisonedRemapRejectedOnStoreHit(t *testing.T) {
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			st := openStore(t)
			g := testGraph(21)
			if err := st.Put(poisonedArtifact(t, g, p.poison)); err != nil {
				t.Fatal(err)
			}
			e := newStoreEngine(t, Options{Store: st})
			c, err := e.Compile(g, testCfg, compiler.Options{})
			if err != nil {
				t.Fatalf("poisoned store broke compilation: %v", err)
			}
			if !servesGraph(g, c) {
				t.Fatal("served a program that does not serve the graph")
			}
			if s := e.Stats(); s.StoreErrors != 1 || s.StoreHits != 0 {
				t.Errorf("stats: %+v, want 1 store error and no store hit", s)
			}
			// The recompile's persist healed the key.
			e.Flush()
			checkHealed(t, st, g)
		})
	}
}

// TestPoisonedRemapRejectedAfterPreload: Preload cannot check a remap
// (it has no request graph), so the cache-hit path must — a typed
// error, eviction from cache and store, and a clean recompile on retry
// instead of an index-out-of-range panic or a wrong answer mid-request.
func TestPoisonedRemapRejectedAfterPreload(t *testing.T) {
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			st := openStore(t)
			g := testGraph(22)
			if err := st.Put(poisonedArtifact(t, g, p.poison)); err != nil {
				t.Fatal(err)
			}
			e := newStoreEngine(t, Options{Store: st})
			if n, err := e.Preload(); err != nil || n != 1 {
				t.Fatalf("preload: %d, %v", n, err)
			}
			if _, err := e.Compile(g, testCfg, compiler.Options{}); err == nil {
				t.Fatal("poisoned preloaded artifact was served")
			}
			if s := e.Stats(); s.StoreErrors != 1 {
				t.Errorf("store errors = %d, want 1", s.StoreErrors)
			}
			// Retry: the entry and file are gone, so this is a clean compile.
			c, err := e.Compile(g, testCfg, compiler.Options{})
			if err != nil {
				t.Fatalf("retry after eviction: %v", err)
			}
			if !servesGraph(g, c) {
				t.Error("retry served a program that does not serve the graph")
			}
			inputs := testInputs(g, 2)
			res, err := executeOne(e, c, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.CheckOutputs(c, inputs, res, 0); err != nil {
				t.Errorf("recovered program vs reference: %v", err)
			}
		})
	}
}

// TestPoisonedRemapConcurrentWaitersHealOnce: many goroutines hitting
// the same poisoned preloaded entry must leave the store healed — only
// the waiter that evicts the entry purges the file, so a late waiter
// cannot delete the artifact a retry has already re-persisted.
func TestPoisonedRemapConcurrentWaitersHealOnce(t *testing.T) {
	for _, p := range poisons {
		t.Run(p.name, func(t *testing.T) {
			st := openStore(t)
			g := testGraph(23)
			if err := st.Put(poisonedArtifact(t, g, p.poison)); err != nil {
				t.Fatal(err)
			}
			e := newStoreEngine(t, Options{Store: st})
			if n, err := e.Preload(); err != nil || n != 1 {
				t.Fatalf("preload: %d, %v", n, err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// First call may fail on the poisoned entry; retry must
					// succeed with a program that serves the graph.
					for attempt := 0; attempt < 2; attempt++ {
						c, err := e.Compile(g, testCfg, compiler.Options{})
						if err != nil {
							continue
						}
						if !servesGraph(g, c) {
							t.Error("served a program that does not serve the graph")
						}
						return
					}
					t.Error("compile did not recover after the poisoned entry was evicted")
				}()
			}
			wg.Wait()
			e.Flush()
			checkHealed(t, st, g)
		})
	}
}

// TestStoreRaceOneArtifactPerKey is the -race satellite: many
// goroutines across several engines miss on the same population of
// graphs against one shared store; when the dust settles the store
// holds exactly one artifact per key and every artifact decodes.
func TestStoreRaceOneArtifactPerKey(t *testing.T) {
	st := openStore(t)
	const (
		engines    = 3
		goroutines = 8
		graphs     = 6
	)
	engs := make([]*Engine, engines)
	for i := range engs {
		engs[i] = newStoreEngine(t, Options{Store: st})
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < graphs; i++ {
				g := testGraph(int64(i))
				e := engs[(w+i)%engines]
				c, err := e.Compile(g, testCfg, compiler.Options{})
				if err != nil {
					t.Errorf("compile: %v", err)
					return
				}
				inputs := testInputs(g, float64(w+1))
				res, err := executeOne(e, c, inputs)
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if err := sim.CheckOutputs(c, inputs, res, 0); err != nil {
					t.Errorf("goroutine %d graph %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range engs {
		e.Flush()
	}
	if n, err := storeLen(st); err != nil || n != graphs {
		t.Fatalf("store holds %d artifacts (%v), want exactly %d — one per key", n, err, graphs)
	}
	bad := 0
	st.Walk(func(path string, a *artifact.Artifact, err error) bool {
		if err != nil {
			t.Errorf("%s: %v", path, err)
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d artifacts do not decode", bad)
	}
}

// TestStoreRacePreloadDuringPersist is the torn-read half of the -race
// satellite: warm-start preloads run concurrently with engines still
// persisting fresh compilations. Atomic rename-on-write means a
// preloader must only ever see complete artifacts — zero decode errors
// — and everything it loads must execute.
func TestStoreRacePreloadDuringPersist(t *testing.T) {
	st := openStore(t)
	writer := newStoreEngine(t, Options{Store: st})
	const graphs = 10
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < graphs; i++ {
			if _, err := writer.Compile(testGraph(int64(100+i)), testCfg, compiler.Options{}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var loaded int
	for round := 0; round < 20; round++ {
		reader := newStoreEngine(t, Options{Store: st})
		n, err := reader.Preload()
		if err != nil {
			t.Fatalf("preload round %d: %v", round, err)
		}
		if s := reader.Stats(); s.StoreErrors != 0 {
			t.Fatalf("preload round %d observed %d torn/corrupt artifacts", round, s.StoreErrors)
		}
		loaded = n
	}
	wg.Wait()
	writer.Flush()
	final := newStoreEngine(t, Options{Store: st})
	n, err := final.Preload()
	if err != nil {
		t.Fatal(err)
	}
	if n != graphs {
		t.Errorf("final preload loaded %d, want %d (last mid-flight round saw %d)", n, graphs, loaded)
	}
}

// TestProgramGraphBuilds counts, per Program call, the hits, misses
// and calls of its graph builder: the graph is built once on a miss,
// never on a hit of an entry that was compiled or store-decoded, never
// for a waiter on an in-flight compile, and once on the first hit of a
// preloaded entry (which checks the program against it) and never
// after. A failed compile is not cached, and a hit touches the LRU.
func TestProgramGraphBuilds(t *testing.T) {
	st := openStore(t)
	a, b, c := testGraph(61), testGraph(62), testGraph(63)
	e := newStoreEngine(t, Options{CacheSize: 2, Store: st})
	// resolve calls Program for g on cfg and checks what it counted:
	// hits and misses from Stats, builds from the graph builder.
	resolve := func(e *Engine, g *dag.Graph, cfg arch.Config, hits, misses, builds int64) error {
		t.Helper()
		var built atomic.Int64
		before := e.Stats()
		p, sinks, err := e.Program(g.Fingerprint(), func() (*dag.Graph, error) { built.Add(1); return g, nil }, cfg, compiler.Options{}, nil)
		after := e.Stats()
		got := [3]int64{after.Hits - before.Hits, after.Misses - before.Misses, built.Load()}
		if want := [3]int64{hits, misses, builds}; got != want {
			t.Errorf("hits, misses, graph builds %v, want %v", got, want)
		}
		if err == nil && (!slices.Equal(sinks, g.Outputs()) || !servesGraph(g, p)) {
			t.Errorf("Program answered sinks %v, graph has %v", sinks, g.Outputs())
		}
		return err
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	illegal := arch.Config{D: 5, B: 2, R: 8}
	if resolve(e, a, illegal, 0, 1, 1) == nil {
		t.Fatal("compile on an illegal config succeeded")
	}
	if resolve(e, a, illegal, 0, 1, 1) == nil {
		t.Fatal("a failed compile was cached")
	}
	must(resolve(e, a, testCfg, 0, 1, 1))
	must(resolve(e, b, testCfg, 0, 1, 1))
	must(resolve(e, a, testCfg, 1, 0, 0))
	must(resolve(e, c, testCfg, 0, 1, 1)) // evicts b: the hit made a the most recent
	if s := e.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", s.Evictions)
	}
	must(resolve(e, a, testCfg, 1, 0, 0))
	e.Flush()
	must(resolve(e, b, testCfg, 0, 1, 1)) // a store decode, checked against b
	if s := e.Stats(); s.StoreHits != 1 {
		t.Fatalf("store hits %d; b must be decoded, not compiled", s.StoreHits)
	}
	must(resolve(e, b, testCfg, 1, 0, 0))

	// A waiter on an in-flight compile: the first caller's builder
	// holds the compile until the second caller has counted its hit.
	d, e3 := testGraph(64), New(Options{})
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := e3.Program(d.Fingerprint(), func() (*dag.Graph, error) { <-release; return d, nil }, testCfg, compiler.Options{}, nil)
		first <- err
	}()
	for e3.Stats().Misses == 0 {
		runtime.Gosched() // until the first caller has inserted d
	}
	waiter := make(chan error, 1)
	go func() { waiter <- resolve(e3, d, testCfg, 1, 0, 0) }()
	for e3.Stats().Hits == 0 {
		runtime.Gosched() // until the waiter has counted its hit
	}
	close(release)
	must(<-first)
	must(<-waiter)

	e2 := newStoreEngine(t, Options{CacheSize: 3, Store: st})
	if n, err := e2.Preload(); err != nil || n != 3 {
		t.Fatalf("preload: %d, %v", n, err)
	}
	for _, g := range []*dag.Graph{a, b, c} {
		must(resolve(e2, g, testCfg, 1, 0, 1))
		must(resolve(e2, g, testCfg, 1, 0, 0))
	}
	if s := e2.Stats(); s.Misses != 0 {
		t.Errorf("preloaded engine compiled %d times", s.Misses)
	}
}

// TestProgramGraphError: a graph builder that fails fails the call. On
// a miss the entry leaves the cache, so the next call misses again; on
// a preloaded entry's first hit the entry stays resident and unchecked,
// store file included, and the next caller's graph checks it.
func TestProgramGraphError(t *testing.T) {
	st := openStore(t)
	g := testGraph(65)
	errBuild := errors.New("graph text does not parse")
	failing := func() (*dag.Graph, error) { return nil, errBuild }
	good := func() (*dag.Graph, error) { return g, nil }

	e := newStoreEngine(t, Options{Store: st})
	if _, _, err := e.Program(g.Fingerprint(), failing, testCfg, compiler.Options{}, nil); !errors.Is(err, errBuild) {
		t.Fatalf("miss with a failing builder: %v", err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Cached != 0 {
		t.Fatalf("misses %d, cached %d; want 1 and 0", s.Misses, s.Cached)
	}
	if _, _, err := e.Program(g.Fingerprint(), good, testCfg, compiler.Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 2 || s.Cached != 1 {
		t.Fatalf("misses %d, cached %d; want 2 and 1", s.Misses, s.Cached)
	}
	e.Flush()

	e2 := newStoreEngine(t, Options{Store: st})
	if n, err := e2.Preload(); err != nil || n != 1 {
		t.Fatalf("preload: %d, %v", n, err)
	}
	if _, _, err := e2.Program(g.Fingerprint(), failing, testCfg, compiler.Options{}, nil); !errors.Is(err, errBuild) {
		t.Fatalf("preloaded hit with a failing builder: %v", err)
	}
	if s := e2.Stats(); s.Hits != 1 || s.Cached != 1 || s.StoreErrors != 0 {
		t.Fatalf("hits %d, cached %d, store errors %d; want 1, 1, 0", s.Hits, s.Cached, s.StoreErrors)
	}
	_, sinks, err := e2.Program(g.Fingerprint(), good, testCfg, compiler.Options{}, nil)
	if err != nil || !slices.Equal(sinks, g.Outputs()) {
		t.Fatalf("sinks %v, %v; want %v", sinks, err, g.Outputs())
	}
	if s := e2.Stats(); s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("hits %d, misses %d; want 2 and 0", s.Hits, s.Misses)
	}
}
