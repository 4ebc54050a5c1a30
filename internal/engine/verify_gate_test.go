package engine

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
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
	a := &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: opts.Normalized(), Compiled: c}
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
	res, err := e.Execute(g, testCfg, opts, testInputs(g, 0.5))
	if err != nil {
		t.Fatalf("request must survive a tampered store: %v", err)
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
	res, err := e.Execute(g, testCfg, opts, inputs)
	if err != nil {
		t.Fatalf("request must survive a poisoned store: %v", err)
	}
	c, err := e.Compile(g, testCfg, opts) // cache hit on the recompiled program
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
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("store holds %d artifacts (%v), want 0 — poisoned file must be purged", n, err)
	}
}

// TestVerifyMemoizedPerStoreKey: verification cost is once per content
// address, not once per decode — an LRU-thrashed engine re-decodes the
// same artifacts repeatedly but Verified stays at the key count.
func TestVerifyMemoizedPerStoreKey(t *testing.T) {
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
			if _, err := e.Compile(g, testCfg, compiler.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := e.Stats()
	if s.StoreHits != 4 {
		t.Fatalf("StoreHits = %d, want 4 (every round re-decodes under CacheSize=1)", s.StoreHits)
	}
	if s.Verified != 2 {
		t.Errorf("Verified = %d, want 2 — one verification per store key, memoized across decodes", s.Verified)
	}
	if s.VerifyRejects != 0 {
		t.Errorf("VerifyRejects = %d, want 0", s.VerifyRejects)
	}
}
