// Package baseline provides the comparison platforms of the paper's
// evaluation (§V-C): a real multicore level-synchronous executor (the
// GRAPHOPT-style CPU baseline, actually runnable on the host), and
// calibrated analytic throughput models for the platforms that cannot be
// run here — Intel Xeon CPU, RTX GPU, the DPU (v1) ASIP, and SPU. Each
// analytic model is anchored to the GOPS the paper reports and driven by
// the structural workload parameters (node count n, longest path l) that
// the paper identifies as the performance determinants, so cross-platform
// *orderings and ratios* are preserved (see DESIGN.md, substitutions).
package baseline

import (
	"runtime"
	"sync"

	"dpuv2/internal/dag"
)

// Platform identifies a modeled comparison platform.
type Platform int

const (
	// CPU is the 18-core Xeon Gold 6154 running GRAPHOPT-parallelized
	// DAGs [44].
	CPU Platform = iota
	// GPU is the RTX 2080 Ti running cuSPARSE-style level-scheduled
	// kernels [30].
	GPU
	// DPU1 is the first-generation DAG processing unit [46]: 64 parallel
	// units around a shared 64-bank scratchpad with 43% load-request
	// bank-conflict rate.
	DPU1
	// SPU is the sparse processing unit [11]; like the paper, its
	// throughput is estimated from its published speedup over its own
	// CPU baseline.
	SPU
	// CPUSPU is the CPU baseline used in the SPU paper.
	CPUSPU
)

func (p Platform) String() string {
	switch p {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case DPU1:
		return "DPU"
	case SPU:
		return "SPU"
	case CPUSPU:
		return "CPU_SPU"
	}
	return "?"
}

// Workload is the structural summary the analytic models consume.
type Workload struct {
	Nodes       int // arithmetic operations n
	LongestPath int // critical path l in nodes
}

// Model parameters calibrated against Table III and fig. 1(c)/fig. 14 of
// the paper. All times in nanoseconds.
const (
	// CPU: memory-bound scalar op cost per core and per-level sync cost;
	// GRAPHOPT coarsens levels into super-layers of ≥minLayerOps ops, so
	// sync count is bounded.
	cpuCores   = 18
	cpuOpNS    = 9.0   // effective per-op latency (irregular 4B gathers)
	cpuSyncNS  = 600.0 // barrier across 18 cores
	cpuCoarsen = 8.0   // GRAPHOPT merges ≈8 levels per super-layer
	cpuStartNS = 1000.0

	// GPU: per-kernel-launch overhead dominates small irregular DAGs.
	gpuLaunchNS = 2000.0
	gpuOpNS     = 0.12 // per-op cost at full occupancy (≈8.3 GOPS ceiling)
	gpuMinOcc   = 0.05 // fraction of peak reached by tiny levels

	// DPU v1: 64 units at 300 MHz; a unit completes one op per
	// ~5.5 cycles (fetch, two operand loads with 43% conflict stalls,
	// compute, store), further limited by available parallelism.
	dpu1Units       = 64
	dpu1CyclesPerOp = 5.5
	dpu1ClockGHz    = 0.3

	// SPU estimation: the paper's Table III footnote derives SPU GOPS as
	// 13.3× its CPU baseline; CPU_SPU itself tracks the CPU model with a
	// slightly different constant (1.7 vs 1.2 GOPS on the large suite).
	spuSpeedup  = 13.3
	cpuSPUScale = 0.95
)

// Throughput returns the modeled throughput in GOPS for the platform.
func Throughput(p Platform, w Workload) float64 {
	n := float64(w.Nodes)
	l := float64(w.LongestPath)
	if n <= 0 {
		return 0
	}
	if l < 1 {
		l = 1
	}
	switch p {
	case CPU:
		return n / cpuTimeNS(n, l)
	case CPUSPU:
		return cpuSPUScale * n / cpuTimeNS(n, l)
	case GPU:
		// Level-wise kernels: each of ~l levels costs a launch plus its
		// share of compute; small levels run far below occupancy.
		perLevel := n / l
		occ := perLevel / (perLevel + 4096)
		if occ < gpuMinOcc {
			occ = gpuMinOcc
		}
		t := l*gpuLaunchNS + n*gpuOpNS/occ
		return n / t
	case DPU1:
		// Parallelism-limited units with conflict-stalled scratchpad.
		par := n / l
		active := par
		if active > dpu1Units {
			active = dpu1Units
		}
		opsPerCycle := active / dpu1CyclesPerOp
		cycles := n / opsPerCycle
		return n / (cycles / dpu1ClockGHz)
	case SPU:
		return spuSpeedup * Throughput(CPUSPU, w)
	}
	return 0
}

func cpuTimeNS(n, l float64) float64 {
	// GRAPHOPT coarsens consecutive levels into super-layers, bounding
	// the number of barriers to ≈l/cpuCoarsen.
	layers := l / cpuCoarsen
	if layers < 1 {
		layers = 1
	}
	return cpuStartNS + n*cpuOpNS/cpuCores + layers*cpuSyncNS
}

// PowerW returns the platform power draw used for the EDP rows of
// Table III (paper-reported wall powers).
func PowerW(p Platform, large bool) float64 {
	switch p {
	case CPU:
		if large {
			return 65
		}
		return 55
	case CPUSPU:
		return 61
	case GPU:
		if large {
			return 155
		}
		return 98
	case DPU1:
		return 0.07
	case SPU:
		return 16
	}
	return 0
}

// RunParallel executes the DAG on the host with one goroutine per core
// using level-synchronous scheduling — the real counterpart of the CPU
// model, used by the benchmark harness to report measured host GOPS.
func RunParallel(g *dag.Graph, inputs []float64, workers int) ([]float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vals := make([]float64, g.NumNodes())
	next := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Op(dag.NodeID(i)) == dag.OpInput {
			vals[i] = inputs[next]
			next++
		} else if g.Op(dag.NodeID(i)) == dag.OpConst {
			vals[i] = g.Node(dag.NodeID(i)).Val
		}
	}
	levels := dag.Levels(g)
	var wg sync.WaitGroup
	for _, level := range levels {
		chunk := (len(level) + workers - 1) / workers
		if chunk == 0 {
			continue
		}
		for lo := 0; lo < len(level); lo += chunk {
			hi := lo + chunk
			if hi > len(level) {
				hi = len(level)
			}
			wg.Add(1)
			go func(part []dag.NodeID) {
				defer wg.Done()
				for _, id := range part {
					n := g.Node(id)
					switch n.Op {
					case dag.OpAdd:
						acc := vals[n.Args[0]]
						for _, a := range n.Args[1:] {
							acc += vals[a]
						}
						vals[id] = acc
					case dag.OpMul:
						acc := vals[n.Args[0]]
						for _, a := range n.Args[1:] {
							acc *= vals[a]
						}
						vals[id] = acc
					}
				}
			}(level[lo:hi])
		}
		wg.Wait()
	}
	return vals, nil
}
