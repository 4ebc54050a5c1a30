package engine

import (
	"sync"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
	"dpuv2/internal/verify"
)

// plantIllegalArtifact compiles g for (cfg, opts), semantically corrupts
// the program — the first exec swapped to pc 0, so it reads registers
// no load has written — and persists it at the key's content address.
// The mutation survives the round trip: every instruction still passes
// structural validation and the re-encoded stream is canonical, so only
// the static verifier can tell the artifact is illegal.
func plantIllegalArtifact(t *testing.T, st *artifact.Store, g *dag.Graph, cfg arch.Config, opts compiler.Options) {
	t.Helper()
	plantArtifact(t, st, g, cfg, opts, func(c *compiler.Compiled) {
		i := -1
		for j, in := range c.Prog.Instrs {
			if in.Kind == arch.KindExec {
				i = j
				break
			}
		}
		if i <= 0 {
			t.Fatal("no exec instruction to displace")
		}
		c.Prog.Instrs[0], c.Prog.Instrs[i] = c.Prog.Instrs[i], c.Prog.Instrs[0]
	})
}

// plantArtifact compiles g for (cfg, opts), applies tamper and persists
// the result, re-encoded with a valid checksum, at the key's content
// address.
func plantArtifact(t *testing.T, st *artifact.Store, g *dag.Graph, cfg arch.Config, opts compiler.Options, tamper func(*compiler.Compiled)) {
	t.Helper()
	c, err := compiler.Compile(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	tamper(c)
	a := &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: opts, Compiled: c}
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRejectsStoredStatsMismatch: an artifact whose program is
// legal but whose stored cycle count was halved must not be served —
// the engine reports c.Stats.Cycles to clients as the program's latency.
// The request is answered by the recompiled program, with its cycles.
func TestVerifyRejectsStoredStatsMismatch(t *testing.T) {
	st := openStore(t)
	g := testGraph(47)
	opts := compiler.Options{}
	plantArtifact(t, st, g, testCfg, opts, func(c *compiler.Compiled) { c.Stats.Cycles /= 2 })

	e := newStoreEngine(t, Options{Store: st})
	c, err := e.Compile(g, testCfg, opts)
	if err != nil {
		t.Fatalf("request must survive a tampered store: %v", err)
	}
	res, err := executeOne(e, c, testInputs(g, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := compiler.Compile(g, testCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != want.Stats.Cycles {
		t.Errorf("served cycles = %d, want the recompiled program's %d", res.Stats.Cycles, want.Stats.Cycles)
	}
	if s := e.Stats(); s.VerifyRejects != 1 || s.StoreHits != 0 {
		t.Errorf("VerifyRejects = %d, StoreHits = %d, want 1 and 0", s.VerifyRejects, s.StoreHits)
	}
}

// TestVerifyRejectsStorePlantedIllegalArtifact is the acceptance
// criterion end to end: a CRC-clean but semantically illegal artifact
// planted in the store is rejected at decode (VerifyRejects ≥ 1), the
// file is purged, and the request is still answered correctly via the
// fallback compile.
func TestVerifyRejectsStorePlantedIllegalArtifact(t *testing.T) {
	st := openStore(t)
	g := testGraph(41)
	opts := compiler.Options{}
	plantIllegalArtifact(t, st, g, testCfg, opts)

	e := newStoreEngine(t, Options{Store: st})
	inputs := testInputs(g, 0.5)
	c, err := e.Compile(g, testCfg, opts)
	if err != nil {
		t.Fatalf("request must survive a poisoned store: %v", err)
	}
	res, err := executeOne(e, c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckOutputs(c, inputs, res, 0); err != nil {
		t.Errorf("fallback compile served wrong values: %v", err)
	}
	s := e.Stats()
	if s.VerifyRejects != 1 {
		t.Errorf("VerifyRejects = %d, want 1", s.VerifyRejects)
	}
	if s.StoreHits != 0 {
		t.Errorf("StoreHits = %d, want 0 (the poisoned artifact must not count as a hit)", s.StoreHits)
	}
	if s.StoreErrors == 0 {
		t.Error("StoreErrors = 0, want the rejection surfaced to operators")
	}

	// The purge and the fallback's async persist leave a clean artifact
	// behind: a second engine decodes and verifies it.
	e.Flush()
	e2 := newStoreEngine(t, Options{Store: st})
	if _, err := e2.Compile(g, testCfg, opts); err != nil {
		t.Fatal(err)
	}
	if s2 := e2.Stats(); s2.StoreHits != 1 || s2.VerifyRejects != 0 || s2.Verified != 1 {
		t.Errorf("after heal: StoreHits=%d VerifyRejects=%d Verified=%d, want 1/0/1",
			s2.StoreHits, s2.VerifyRejects, s2.Verified)
	}
}

// TestPreloadSkipsIllegalArtifact: the warm-start walk applies the same
// gate — an illegal artifact is not cached and is purged from disk.
func TestPreloadSkipsIllegalArtifact(t *testing.T) {
	st := openStore(t)
	plantIllegalArtifact(t, st, testGraph(42), testCfg, compiler.Options{})

	e := newStoreEngine(t, Options{Store: st})
	n, err := e.Preload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("preloaded %d artifacts, want 0", n)
	}
	s := e.Stats()
	if s.VerifyRejects != 1 || s.Preloaded != 0 || s.StoreErrors == 0 {
		t.Errorf("stats after poisoned preload: %+v", s)
	}
	if n, err := storeLen(st); err != nil || n != 0 {
		t.Errorf("store holds %d artifacts (%v), want 0 — poisoned file must be purged", n, err)
	}
}

// TestVerifyMemoizedPerContent: verification cost is once per payload,
// not once per decode — an LRU-thrashed engine re-decodes the same
// artifacts repeatedly but Verified stays at the count of distinct
// contents, and every decode after the first is a serving decode.
func TestVerifyMemoizedPerContent(t *testing.T) {
	st := openStore(t)
	g1, g2 := testGraph(44), testGraph(45)
	seed := newStoreEngine(t, Options{Store: st})
	for _, g := range []*dag.Graph{g1, g2} {
		if _, err := seed.Compile(g, testCfg, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	seed.Flush()

	e := newStoreEngine(t, Options{Store: st, CacheSize: 1})
	for round := 0; round < 2; round++ {
		for _, g := range []*dag.Graph{g1, g2} {
			c, err := e.Compile(g, testCfg, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if served := c.CheckProgram() != nil; served != (round > 0) {
				t.Errorf("round %d: serving decode = %v, want %v", round, served, round > 0)
			}
		}
	}
	s := e.Stats()
	if s.StoreHits != 4 {
		t.Fatalf("StoreHits = %d, want 4 (every round re-decodes under CacheSize=1)", s.StoreHits)
	}
	if s.Verified != 2 {
		t.Errorf("Verified = %d, want 2 — one verification per payload, memoized across decodes", s.Verified)
	}
	if s.VerifyRejects != 0 {
		t.Errorf("VerifyRejects = %d, want 0", s.VerifyRejects)
	}
}

// TestVerifyReplacedArtifactReverified: the memo names contents, not
// addresses. An artifact replaced at the same address after its first
// verification (CRC-clean, the same identity, serving the graph, but
// illegal for the machine) is verified again on its next decode,
// rejected and purged, and the request is answered by a fresh compile.
func TestVerifyReplacedArtifactReverified(t *testing.T) {
	st := openStore(t)
	g, other := testGraph(48), testGraph(49)
	opts := compiler.Options{}
	seed := newStoreEngine(t, Options{Store: st})
	if _, err := seed.Compile(g, testCfg, opts); err != nil {
		t.Fatal(err)
	}
	seed.Flush()

	e := newStoreEngine(t, Options{Store: st, CacheSize: 1})
	for _, h := range []*dag.Graph{g, other} { // g verified, then evicted
		if _, err := e.Compile(h, testCfg, opts); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	key := artifact.KeyFor(g.Fingerprint(), testCfg, opts)
	if err := st.Remove(key); err != nil {
		t.Fatal(err)
	}
	plantIllegalArtifact(t, st, g, testCfg, opts)
	before := e.Stats()

	inputs := testInputs(g, 0.5)
	c, err := e.Compile(g, testCfg, opts)
	if err != nil {
		t.Fatalf("request must survive a replaced artifact: %v", err)
	}
	if err := c.CheckProgram(); err != nil {
		t.Errorf("answer is not a fresh compile: %v", err)
	}
	res, err := executeOne(e, c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckOutputs(c, inputs, res, 0); err != nil {
		t.Errorf("fallback compile served wrong values: %v", err)
	}
	s := e.Stats()
	if d := s.VerifyRejects - before.VerifyRejects; d != 1 {
		t.Errorf("VerifyRejects rose by %d, want 1: the replaced content must be verified anew", d)
	}
	if s.StoreHits != before.StoreHits {
		t.Errorf("StoreHits rose by %d, want 0", s.StoreHits-before.StoreHits)
	}
	e.Flush()
	if a, err := st.GetServing(key, nil); err != nil {
		t.Errorf("the fresh compile's artifact is missing: %v", err)
	} else if fs := verify.Compiled(a.Compiled); verify.HasErrors(fs) {
		t.Errorf("the illegal artifact was not purged: %v", fs)
	}
}

// TestPreloadFeedsVerifyMemo: the warm-start walk verifies into the
// same digest memo as the decode path, so once a preloaded program is
// evicted its next store decode is a serving decode, verified no more.
func TestPreloadFeedsVerifyMemo(t *testing.T) {
	st := openStore(t)
	g, other := testGraph(50), testGraph(51)
	seed := newStoreEngine(t, Options{Store: st})
	if _, err := seed.Compile(g, testCfg, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	seed.Flush()

	e := newStoreEngine(t, Options{Store: st, CacheSize: 1})
	if n, err := e.Preload(); err != nil || n != 1 {
		t.Fatalf("Preload = %d, %v; want 1", n, err)
	}
	if _, err := e.Compile(other, testCfg, compiler.Options{}); err != nil { // evicts g
		t.Fatal(err)
	}
	before := e.Stats()
	c, err := e.Compile(g, testCfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Prog.Instrs) != 0 || c.Stats.Instructions == 0 {
		t.Errorf("store decode after preload carries %d of %d instructions, want a serving decode (none)", len(c.Prog.Instrs), c.Stats.Instructions)
	}
	s := e.Stats()
	if s.StoreHits != before.StoreHits+1 || s.Verified != before.Verified || before.Verified != 1 {
		t.Errorf("StoreHits %d → %d, Verified %d → %d; want one more hit and Verified staying 1",
			before.StoreHits, s.StoreHits, before.Verified, s.Verified)
	}
}

// TestConcurrentMissesVerifyOncePerPayload: goroutines thrashing a
// one-entry cache over two stored graphs miss again and again, many of
// the misses concurrent with each other, yet each payload is verified
// exactly once and every answer is bit-exact. Run under -race.
func TestConcurrentMissesVerifyOncePerPayload(t *testing.T) {
	st := openStore(t)
	gs := []*dag.Graph{testGraph(52), testGraph(53)}
	seed := newStoreEngine(t, Options{Store: st})
	for _, g := range gs {
		if _, err := seed.Compile(g, testCfg, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	seed.Flush()

	e := newStoreEngine(t, Options{Store: st, CacheSize: 1})
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g := gs[(w+r)%len(gs)]
				c, err := e.Compile(g, testCfg, compiler.Options{})
				if err == nil {
					inputs := testInputs(g, float64(r+1))
					var res *sim.Result
					if res, err = executeOne(e, c, inputs); err == nil {
						err = sim.CheckOutputs(c, inputs, res, 0)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := e.Stats()
	if s.Verified != 2 || s.VerifyRejects != 0 {
		t.Errorf("Verified = %d, VerifyRejects = %d; want 2 and 0", s.Verified, s.VerifyRejects)
	}
	if s.StoreHits < 2 || s.StoreMisses != 0 || s.Misses != s.StoreHits {
		t.Errorf("Misses %d, StoreHits %d, StoreMisses %d: want every miss answered by the store", s.Misses, s.StoreHits, s.StoreMisses)
	}
}
