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
const goldenRevision = 4

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
		"circuit-64/spill":    0x40e67218b2d8c7d6,
		"circuit-64/crossbar": 0xd2f38913f17a31c6,
		"tretail/minEDP":      0x27218b322c93ff46,
		"tretail/spill":       0x3f368d4a09af99a7,
		"tretail/crossbar":    0x1b6ecaec95413c11,
		"msnbc/minEDP":        0x4736a50a70a51b99,
		"msnbc/spill":         0x77df1f7af2953868,
		"msnbc/crossbar":      0xf09217b1e8c81770,
		"dw2048/minEDP":       0x1e86b5a6cf640214,
		"dw2048/spill":        0x7c22e62d02cc8c04,
		"dw2048/crossbar":     0xe3ac5eb5a0c55a49,
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
