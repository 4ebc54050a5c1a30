// Quickstart: build a tiny irregular DAG by hand, compile it for the
// paper's min-EDP DPU-v2 configuration, execute it and print the
// verified result with performance estimates. The cycle, power and
// energy figures are read off the compiled instruction stream (the
// schedule is static); `dpu-sim` steps the cycle-accurate machine.
package main

import (
	"fmt"
	"log"

	"dpuv2"
)

func main() {
	// (a + b) * 3, plus a second output sharing the sum: a small taste of
	// the irregular fan-out the architecture is designed around.
	g := dpuv2.NewGraph("quickstart")
	a := g.AddInput()
	b := g.AddInput()
	sum := g.AddOp(dpuv2.OpAdd, a, b)
	three := g.AddConst(3)
	scaled := g.AddOp(dpuv2.OpMul, sum, three)
	squared := g.AddOp(dpuv2.OpMul, sum, sum)
	_ = scaled
	_ = squared

	prog, err := dpuv2.Compile(g, dpuv2.MinEDP(), dpuv2.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d instructions into %d packed bytes\n",
		prog.Stats().Instructions, prog.BinarySize())

	res, err := dpuv2.Execute(prog, []float64{2, 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(2+5)*3 = %v\n", res.Outputs[prog.SinkOf(scaled)])
	fmt.Printf("(2+5)^2 = %v\n", res.Outputs[prog.SinkOf(squared)])
	fmt.Printf("cycles=%d, throughput=%.3f GOPS, power=%.1f mW, energy/op=%.1f pJ\n",
		res.Report.Cycles, res.Report.ThroughputGOPS, res.Report.PowerMW, res.Report.EnergyPerOpPJ)
}
