// Command dpu-compile compiles a benchmark workload for a DPU-v2
// configuration and reports the compilation statistics, instruction mix
// and packed binary size; optionally the result is written to a file.
//
//	dpu-compile -workload mnist -scale 0.5 -d 3 -b 64 -r 32 -o mnist.bin
//
// The -o extension selects the output form:
//
//   - *.dpuprog — a versioned, self-describing artifact (see
//     internal/artifact): config + options header, source-graph
//     fingerprint, binarized graph, data-memory maps and the packed
//     instruction stream, checksummed. Drop such files in a directory
//     and `dpu-serve -artifact-dir <dir>` warm-starts from them without
//     ever compiling; `dpu-sim -artifact <file>` executes one directly.
//   - anything else — the raw packed instruction stream (fig. 7(b)),
//     the form the paper's footprint comparisons use.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dpuv2/internal/arch"
	"dpuv2/internal/artifact"
	"dpuv2/internal/compiler"
	"dpuv2/internal/dag"
	"dpuv2/internal/sim"
	"dpuv2/internal/suite"
	"dpuv2/internal/verify"
)

// run is the testable body of the command: parse args, compile, report,
// emit. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpu-compile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "tretail", "benchmark name from Table I")
	in := fs.String("in", "", "compile a DAG file (see internal/dag format) instead of a named benchmark")
	disasm := fs.Bool("disasm", false, "print the disassembled program")
	scale := fs.Float64("scale", 1.0, "workload scale")
	d := fs.Int("d", 3, "tree depth D")
	b := fs.Int("b", 64, "register banks B")
	r := fs.Int("r", 32, "registers per bank R")
	out := fs.String("o", "", "write the program to this file (*.dpuprog: versioned artifact; otherwise raw packed binary)")
	seed := fs.Int64("seed", 0, "compiler randomization seed")
	part := fs.Int("partition", 0, "coarse partition size (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h is a successful usage request, not a mistake
		}
		return 2
	}

	var g *dag.Graph
	var err error
	if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			fmt.Fprintln(stderr, ferr)
			return 1
		}
		g, err = dag.Read(f, *in)
		f.Close()
	} else {
		g, err = suite.Build(*workload, *scale)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := arch.Config{D: *d, B: *b, R: *r, Output: arch.OutPerLayer}
	opts := compiler.Options{Seed: *seed, PartitionSize: *part}
	c, err := compiler.Compile(g, cfg, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Static verification before anything is reported or emitted — the
	// everything-we-emit-must-verify assertion, at the offline entry
	// point that feeds shared artifact stores.
	if fs := verify.Compiled(c); verify.HasErrors(fs) {
		fmt.Fprintf(stderr, "dpu-compile: compiled program fails static verification (%s):\n", verify.Summary(fs))
		for _, f := range fs {
			fmt.Fprintf(stderr, "  %s\n", f)
		}
		return 1
	}
	st := c.Stats
	fmt.Fprintf(stdout, "workload:      %s (%d arithmetic nodes)\n", g.Name, st.Nodes)
	fmt.Fprintf(stdout, "configuration: %v\n", cfg.Normalize())
	fmt.Fprintf(stdout, "fingerprint:   %s\n", g.Fingerprint().Short())
	fmt.Fprintf(stdout, "blocks:        %d (mean PE utilization %.2f, peak %.2f)\n", st.Blocks, st.MeanUtil, st.PeakUtil)
	fmt.Fprintf(stdout, "instructions:  %d (exec %d, load %d, copy %d, store %d, nop %d)\n",
		st.Instructions, st.Execs, st.Loads, st.Copies, st.Stores+st.SpillStores, st.Nops)
	bound := sim.LowerBound(c.Graph, cfg)
	fmt.Fprintf(stdout, "cycles:        %d (lower bound %d: max(%d op + %d leaf slots, %d latency) + drain)\n",
		st.Cycles, bound.Cycles, bound.Ops, bound.Leaves, bound.Latency)
	fmt.Fprintf(stdout, "conflicts:     %d repaired words (%d input, %d output moves)\n",
		st.CopiedWords, st.InputConflicts, st.OutputMoves)
	fmt.Fprintf(stdout, "spills:        %d stores, %d reloads\n", st.SpillStores, st.Reloads)
	fmt.Fprintf(stdout, "binary:        %d bytes packed (%d bits), data image %d words\n",
		(c.Prog.BitSize()+7)/8, c.Prog.BitSize(), len(c.Prog.InitMem))
	fmt.Fprintf(stdout, "compile time:  %.3fs\n", st.CompileSeconds)
	if *disasm {
		fmt.Fprint(stdout, arch.DisassembleProgram(c.Prog))
	}
	if *out != "" {
		var data []byte
		if strings.HasSuffix(*out, artifact.Ext) {
			a := &artifact.Artifact{Fingerprint: g.Fingerprint(), Options: opts, Compiled: c}
			data, err = artifact.EncodeBytes(a)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		} else {
			data = c.Prog.Pack()
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", *out, len(data))
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
