package sim

import (
	"testing"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
)

// TestMachineRunNoAllocsSteadyState asserts the hot path is allocation
// free: once a Machine exists, stepping instructions must not allocate.
func TestMachineRunNoAllocsSteadyState(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 16, Interior: 300, MaxArgs: 3, MulFrac: 0.5, Seed: 44})
	c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		m := NewMachine(c.Prog.Cfg, c.Prog.InitMem)
		for i, w := range c.InputWord {
			if w >= 0 {
				m.SetMem(w, float64(i))
			}
		}
		if err := m.Run(c.Prog); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up
	perRun := testing.AllocsPerRun(10, run)
	// Everything left is Machine construction (a fixed count independent
	// of program length); the per-instruction loop itself contributes
	// nothing. The seed allocated 5 slices per exec instruction, putting
	// this in the hundreds.
	limit := float64(30)
	if perRun > limit {
		t.Errorf("Machine construction+run allocates %.0f times, want <= %.0f", perRun, limit)
	}
}
