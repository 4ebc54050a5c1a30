package baseline

import (
	"math/rand"
	"testing"

	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
)

func TestRunParallelMatchesEval(t *testing.T) {
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 40, Interior: 5000, MaxArgs: 4, MulFrac: 0.4, Seed: 3})
	rng := rand.New(rand.NewSource(9))
	in := make([]float64, len(g.Inputs()))
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	want, err := dag.Eval(g, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := RunParallel(g, in, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: node %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestCPUModelCalibration(t *testing.T) {
	// Table III: CPU ≈ 1.2 GOPS averaged over the PC+SpTRSV suites.
	var sum float64
	n := 0
	for _, spec := range pc.Suite() {
		w := Workload{Nodes: spec.TargetNodes, LongestPath: spec.TargetDepth}
		sum += Throughput(CPU, w)
		n++
	}
	avg := sum / float64(n)
	if avg < 0.5 || avg > 2.5 {
		t.Errorf("CPU model average %.2f GOPS, Table III says ≈1.2", avg)
	}
}

func TestGPUSlowerThanCPUOnSmallDAGs(t *testing.T) {
	// Fig. 1(c): the GPU underperforms the CPU below ~100k nodes and
	// catches up beyond.
	small := Workload{Nodes: 10_000, LongestPath: 50}
	large := Workload{Nodes: 3_000_000, LongestPath: 200}
	if Throughput(GPU, small) >= Throughput(CPU, small) {
		t.Errorf("GPU should lose on small DAGs: gpu=%.2f cpu=%.2f",
			Throughput(GPU, small), Throughput(CPU, small))
	}
	if Throughput(GPU, large) <= Throughput(CPU, large) {
		t.Errorf("GPU should win on large DAGs: gpu=%.2f cpu=%.2f",
			Throughput(GPU, large), Throughput(CPU, large))
	}
}

func TestDPU1Calibration(t *testing.T) {
	// Table III: DPU (v1) ≈ 3.1 GOPS on the small suites.
	var sum float64
	n := 0
	for _, spec := range pc.Suite() {
		sum += Throughput(DPU1, Workload{Nodes: spec.TargetNodes, LongestPath: spec.TargetDepth})
		n++
	}
	avg := sum / float64(n)
	if avg < 1.5 || avg > 5.0 {
		t.Errorf("DPU1 model average %.2f GOPS, Table III says ≈3.1", avg)
	}
}

func TestSPUDerivedFromCPUSPU(t *testing.T) {
	w := Workload{Nodes: 1_000_000, LongestPath: 100}
	if Throughput(SPU, w) <= Throughput(CPUSPU, w)*10 {
		t.Errorf("SPU should be ≈13.3× CPU_SPU")
	}
}

func TestThroughputMonotoneInParallelism(t *testing.T) {
	// More average parallelism (same n, shorter critical path) must not
	// hurt any platform.
	for _, p := range []Platform{CPU, GPU, DPU1, SPU, CPUSPU} {
		narrow := Throughput(p, Workload{Nodes: 100_000, LongestPath: 2000})
		wide := Throughput(p, Workload{Nodes: 100_000, LongestPath: 50})
		if wide < narrow {
			t.Errorf("%v: parallelism hurt throughput (%.3f < %.3f)", p, wide, narrow)
		}
	}
}

func TestPowerTable(t *testing.T) {
	if PowerW(CPU, false) != 55 || PowerW(GPU, true) != 155 || PowerW(SPU, true) != 16 {
		t.Error("power table drifted from Table III")
	}
	if PowerW(DPU1, false) >= 1 {
		t.Error("DPU1 is a sub-watt ASIP")
	}
}

func TestPlatformStrings(t *testing.T) {
	if CPU.String() != "CPU" || DPU1.String() != "DPU" || SPU.String() != "SPU" {
		t.Error("platform names broken")
	}
}
