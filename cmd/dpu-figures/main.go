// Command dpu-figures regenerates the tables and figures of the paper's
// evaluation section. Run every experiment, or select some with -exp;
// an unknown name exits 1 and lists the experiments.
//
//	dpu-figures -scale 1.0 -exp fig14a
//	dpu-figures -scale 0.25 -exp fig11,fig12
//	dpu-figures -record FIDELITY.json
//
// -record writes the fidelity ledger instead of the tables: every paper
// claim (paper value, ours, ratio, holds) and each Table I graph's
// min-EDP cycles beside sim.LowerBound's terms. The output is the same
// at any -workers value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dpuv2/internal/figures"
)

// run is the testable body of the command; it returns the process exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpu-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment names, or 'all': "+strings.Join(figures.Experiments(), ", "))
	scale := fs.Float64("scale", 1.0, "workload scale vs Table I sizes")
	largeScale := fs.Float64("large-scale", 0.05, "large-PC suite scale")
	workers := fs.Int("workers", 0, "evaluation worker count (0: one per CPU)")
	record := fs.String("record", "", "write the fidelity ledger (paper claims and per-graph cycle bounds) to this file instead of the tables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	r := figures.NewRunner(figures.Config{Scale: *scale, LargeScale: *largeScale, Workers: *workers})
	if *record != "" {
		if err := writeLedger(r, *record); err != nil {
			fmt.Fprintf(stderr, "record: %v\n", err)
			return 1
		}
		return 0
	}
	names := figures.Experiments()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	code := 0
	for _, n := range names {
		t, err := r.Run(strings.TrimSpace(n))
		if err == nil {
			err = figures.Render(stdout, t)
			fmt.Fprintln(stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// writeLedger writes r's fidelity ledger to path.
func writeLedger(r *figures.Runner, path string) error {
	f, err := r.Fidelity()
	if err != nil {
		return err
	}
	b, err := f.MarshalLedger()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
