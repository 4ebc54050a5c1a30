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

// emissionHash digests everything a compile emits for the machine: every
// field of every instruction, in order, and the initial memory image bit
// for bit.
func emissionHash(c *Compiled) uint64 {
	h := fnv.New64a()
	for _, in := range c.Prog.Instrs {
		fmt.Fprintf(h, "%+v\n", *in)
	}
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
		{"spill", arch.Config{D: 2, B: 8, R: 6, Output: arch.OutPerLayer}},
		{"crossbar", arch.Config{D: 3, B: 32, R: 32, Output: arch.OutCrossbar}},
	}
	want := map[string]uint64{
		"circuit-64/minEDP":   0xfa3866cbc4426e09,
		"circuit-64/spill":    0xc468174c5663d14b,
		"circuit-64/crossbar": 0xf4f85d286a7f4871,
		"tretail/minEDP":      0x8eb30e57ca127a85,
		"tretail/spill":       0x284d532621f46630,
		"tretail/crossbar":    0xc145410137b3eab6,
		"msnbc/minEDP":        0xd48b45e17c1c5c8a,
		"msnbc/spill":         0x1cc1856b7fc2d2d1,
		"msnbc/crossbar":      0xad2be2418adc9e32,
		"dw2048/minEDP":       0x85a4b2ad0125a3f6,
		"dw2048/spill":        0x28d8f3adcd490225,
		"dw2048/crossbar":     0x83156fe65ed363c0,
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
