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
// (6 today) whatever the program's length, here 95 to 3,339
// instructions: the instructions and their fields are cut from a
// builder sized by one scan of the opcodes, never allocated one by one
// (a decoder allocating per exec reads 1,459 for dw2048). A count the
// stream cannot hold fails in the scan, before anything is sized by it.
// It also holds the bytes a decoded program costs: arch.Instr at most
// instrBytes, and beyond one instrBytes slot per instruction, at most
// fieldBytes per instruction that is not a nop. A nop has no fields, so
// its slot is all it costs, and a schedule with fewer nops moves
// neither bound (per instruction overall, pigs read 339 B with 1,135
// nops and 405 B with 149, while its decode fell 1,466,560 →
// 1,351,872 B). A program's instructions are one []arch.Instr whose
// exec and store share one arena of per-bank controls, and their fields
// read 473, 420 and 307 B per non-nop instruction on these three
// programs; the layout of seven parallel per-bank slices on a 232 B
// Instr behind a pointer slice read 779, 652 and 418.
// Like TestRunSteadyStateAllocs, it skips under the race detector.
func TestUnpackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not measured under the race detector")
	}
	const limit, instrBytes, fieldBytes = 8.0, 112, 550.0
	if size := unsafe.Sizeof(arch.Instr{}); size > instrBytes {
		t.Errorf("arch.Instr is %d bytes, want <= %d", size, instrBytes)
	}
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
		fields := float64(after.TotalAlloc-before.TotalAlloc)/runs - float64(instrBytes*n)
		if ops := n - c.Prog.Counts()[arch.KindNop]; fields/float64(ops) > fieldBytes {
			t.Errorf("%s: unpacking %d instructions allocates %.0f B of fields per each of its %d non-nops, want <= %.0f", name, n, fields/float64(ops), ops, fieldBytes)
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
