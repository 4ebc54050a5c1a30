// Command dpu-sim executes a workload on the cycle-accurate simulator
// with pseudo-random inputs, verifies every output against the
// reference evaluator, and reports throughput, power and energy
// estimates. The program either comes from an in-process compilation of
// a named benchmark, or — with -artifact — from a compiled .dpuprog
// artifact (see internal/artifact and dpu-compile -o), in which case
// nothing is compiled at all: the deployment shape where compilation is
// an offline step.
//
//	dpu-sim -workload jagmesh4 -scale 0.5
//	dpu-sim -artifact mnist.dpuprog
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/energy"
	"dpuv2/internal/sim"
	"dpuv2/internal/suite"
	"dpuv2/internal/verify"
)

// run is the testable body of the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpu-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "tretail", "benchmark name from Table I")
	artifactPath := fs.String("artifact", "", "execute a compiled .dpuprog artifact instead of compiling a workload")
	scale := fs.Float64("scale", 1.0, "workload scale")
	d := fs.Int("d", 3, "tree depth D")
	b := fs.Int("b", 64, "register banks B")
	r := fs.Int("r", 32, "registers per bank R")
	seed := fs.Int64("seed", 0, "input seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is a successful usage request, not a mistake
		}
		return 2
	}

	var c *compiler.Compiled
	if *artifactPath != "" {
		// An artifact fixes the workload and configuration; accepting
		// -workload/-d/-b/-r alongside it would silently report numbers
		// for a configuration the user did not ask for.
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "scale", "d", "b", "r":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "dpu-sim: -%s conflicts with -artifact (the artifact carries its own workload and configuration)\n", conflict)
			return 2
		}
		raw, err := os.ReadFile(*artifactPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		a, err := artifact.DecodeBytes(raw)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// A CRC-clean artifact can still be illegal for the machine model;
		// naming the hazards beats a mid-run simulator fault.
		if fs := verify.Compiled(a.Compiled); verify.HasErrors(fs) {
			fmt.Fprintf(stderr, "dpu-sim: %s fails static verification (%s):\n", *artifactPath, verify.Summary(fs))
			for _, f := range fs {
				fmt.Fprintf(stderr, "  %s\n", f)
			}
			return 1
		}
		c = a.Compiled
		fmt.Fprintf(stdout, "artifact:    %s (fingerprint %s, format v%d)\n",
			*artifactPath, a.Fingerprint.Short(), artifact.Version)
	} else {
		g, err := suite.Build(*workload, *scale)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		c, err = compiler.Compile(g, arch.Config{D: *d, B: *b, R: *r}, compiler.Options{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	rng := rand.New(rand.NewSource(*seed ^ 0x51b))
	inputs := make([]float64, len(c.Graph.Inputs()))
	for i := range inputs {
		inputs[i] = 0.25 + 0.75*rng.Float64()
	}
	res, err := sim.Run(c, inputs)
	if err == nil {
		err = sim.CheckOutputs(c, inputs, res, 0)
	}
	if err != nil {
		fmt.Fprintln(stderr, "verification FAILED:", err)
		return 1
	}
	est := energy.EstimateRun(c.Prog.Cfg, c.Stats.Nodes, res.Stats, c.Prog)
	fmt.Fprintf(stdout, "workload:    %s, %d ops on %v\n", c.Graph.Name, c.Stats.Nodes, c.Prog.Cfg)
	fmt.Fprintf(stdout, "verified:    %d outputs match the reference evaluator exactly\n", len(res.Outputs))
	fmt.Fprintf(stdout, "cycles:      %d (%d instructions + pipeline drain)\n", res.Stats.Cycles, c.Stats.Instructions)
	fmt.Fprintf(stdout, "throughput:  %.3f GOPS at %d MHz\n", est.ThroughputGOP, energy.ClockMHz)
	fmt.Fprintf(stdout, "power:       %.1f mW (modeled, 28nm)\n", est.PowerMW)
	fmt.Fprintf(stdout, "energy/op:   %.2f pJ, EDP %.2f pJ*ns\n", est.EnergyPerOp, est.EDP)
	fmt.Fprintf(stdout, "reg traffic: %d reads, %d writes; memory %d reads, %d writes\n",
		res.Stats.RegReads, res.Stats.RegWrites, res.Stats.MemReads, res.Stats.MemWrites)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
