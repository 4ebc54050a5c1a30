package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"dpuv2/internal/arch"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/suite"
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

// TestUnpackAllocs holds arch.Unpack to a fixed number of allocations
// (6 today) whatever the program's length, here 98 to 4,325
// instructions: the instructions and their fields are cut from a
// builder sized by one scan of the opcodes, never allocated one by one
// (a decoder allocating per exec reads 1,459 for dw2048). A count the
// stream cannot hold fails in the scan, before anything is sized by it.
// It also holds the bytes a decoded instruction costs: arch.Instr at
// most 112 B, and Unpack's allocation per instruction under
// bytesPerInstr. A program's instructions are one []arch.Instr whose
// exec and store share one arena of per-bank controls; the layout of
// seven parallel per-bank slices on a 232 B Instr behind a pointer slice
// read 436, 417 and 451 B per instruction on these three programs, and
// the shared arena 321, 309 and 339.
// Like TestRunSteadyStateAllocs, it skips under the race detector.
func TestUnpackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	if size := unsafe.Sizeof(arch.Instr{}); size > 112 {
		t.Errorf("arch.Instr is %d bytes, want <= 112", size)
	}
	const limit, bytesPerInstr = 8.0, 380.0
	for _, name := range []string{"tretail", "dw2048", "pigs"} {
		g, err := suite.Build(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(g, arch.MinEDP(), compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		packed, cfg, n := c.Prog.Pack(), c.Prog.Cfg, len(c.Prog.Instrs)
		unpack := func() {
			if _, err := arch.Unpack(packed, cfg, n); err != nil {
				t.Fatal(err)
			}
		}
		if perRun := testing.AllocsPerRun(5, unpack); perRun > limit {
			t.Errorf("%s: unpacking %d instructions allocates %.0f times, want <= %.0f", name, n, perRun, limit)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			unpack()
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n); per > bytesPerInstr {
			t.Errorf("%s: unpacking %d instructions allocates %.0f B each, want <= %.0f", name, n, per, bytesPerInstr)
		}
		perRun := testing.AllocsPerRun(5, func() {
			if _, err := arch.Unpack(packed, cfg, 1<<40); err == nil {
				t.Fatal("Unpack accepted 2^40 instructions from a finite stream")
			}
		})
		if perRun > limit {
			t.Errorf("%s: rejecting an overstated count allocates %.0f times, want <= %.0f", name, perRun, limit)
		}
	}
}
