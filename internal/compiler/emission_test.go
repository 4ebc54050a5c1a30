package compiler

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
	"dpuv2/internal/suite"
)

// emissionCorpus is the fixed corpus the emission golden compiles: three
// Table I graphs at scale 0.05 and one 64-node circuit.
func emissionCorpus(t *testing.T) []struct {
	name string
	g    *dag.Graph
} {
	t.Helper()
	corpus := []struct {
		name string
		g    *dag.Graph
	}{{"circuit-64", pc.Generate(pc.Config{Vars: 8, TargetNodes: 64, TargetDepth: 8,
		SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: 64})}}
	for _, name := range []string{"tretail", "msnbc", "dw2048"} {
		g, err := suite.Build(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, struct {
			name string
			g    *dag.Graph
		}{name, g})
	}
	return corpus
}

// emissionHash digests everything a compile emits for the machine: the
// instruction count and the packed stream, which together are lossless
// for valid instructions (FuzzEncodeDisasmRoundTrip; the count keeps a
// trailing nop, all zero bits, from vanishing into the last byte's
// padding), and the initial memory image bit for bit. It hashes bits,
// not the decoded structs, so a change to how arch.Instr holds its
// fields moves no hash unless the emitted program moves.
func emissionHash(c *Compiled) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\n", len(c.Prog.Instrs))
	h.Write(c.Prog.Pack())
	for _, w := range c.Prog.InitMem {
		fmt.Fprintf(h, "%x,", math.Float64bits(w))
	}
	return h.Sum64()
}

// goldenRevision is the compiler Revision whose emission the hashes of
// TestEmissionGolden pin.
const goldenRevision = 3

// TestEmissionGolden pins the compiler's output on a fixed corpus ×
// three configurations (the min-EDP point, a spilling register file and
// a crossbar interconnect). A refactor of register allocation or its
// replay must leave every hash unchanged; a deliberate change to
// emission updates the table and bumps Revision with goldenRevision, so
// persisted programs of the old emission stop matching any current key.
func TestEmissionGolden(t *testing.T) {
	if Revision != goldenRevision {
		t.Fatalf("compiler Revision is %d, the emission golden pins revision %d: update the hashes and goldenRevision together", Revision, goldenRevision)
	}
	cfgs := []struct {
		name string
		cfg  arch.Config
	}{
		{"minEDP", arch.MinEDP()},
		{"spill", arch.Config{D: 2, B: 8, R: 6}},
		{"crossbar", arch.Config{D: 3, B: 32, R: 32, Output: arch.OutCrossbar}},
	}
	want := map[string]uint64{
		"circuit-64/minEDP":   0x445768946447a1c3,
		"circuit-64/spill":    0x802aee22afecb72e,
		"circuit-64/crossbar": 0xd2f38913f17a31c6,
		"tretail/minEDP":      0x350724ef987fe2bf,
		"tretail/spill":       0x687dff801f70cd7f,
		"tretail/crossbar":    0x9bc33bbeca500037,
		"msnbc/minEDP":        0x6db938223b4a3d8f,
		"msnbc/spill":         0x2ad77aa71584bbb7,
		"msnbc/crossbar":      0x8d145564e3f194b7,
		"dw2048/minEDP":       0xcfa15bc7ab068d8,
		"dw2048/spill":        0x91b4ff70b8ec8f30,
		"dw2048/crossbar":     0xe5f8b3b87c468c4b,
	}
	spills := 0
	for _, gc := range emissionCorpus(t) {
		for _, cc := range cfgs {
			key := gc.name + "/" + cc.name
			c, err := Compile(gc.g, cc.cfg, Options{})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if cc.name == "spill" {
				spills += c.Stats.SpillStores
			}
			got := emissionHash(c)
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("compiler emission changed: %s hash %#x, want %#x (%d instructions)", key, got, w, len(c.Prog.Instrs))
			}
		}
	}
	if spills == 0 {
		t.Error("the spilling configuration spilled nothing: the golden does not cover spill emission")
	}
}
