// Package compiler translates a DAG into a DPU-v2 program following the
// four compilation steps of §IV: block decomposition, PE and register-bank
// mapping, pipeline-aware reordering, and register spilling with concrete
// address assignment. The compiler mirrors the hardware's deterministic
// behaviour — in particular the automatic lowest-free-slot write-address
// policy — so every register address is known at compile time and bank
// conflicts are repaired with explicit copy instructions rather than
// arbitrated at run time.
package compiler

import (
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// ValID identifies a value that lives in the register file or data memory:
// ids below the graph's node count are that node's output (leaf values and
// block-io results); higher ids are copy-temporaries created for conflict
// repair.
type ValID int32

// InvalidVal is the absent value.
const InvalidVal ValID = -1

// Subgraph is one schedulable cone (§IV-A): the complete set of unmapped
// ancestors of Sink, mapped onto the subtree of depth Depth rooted at
// Root. Cones are disjoint within and across blocks.
type Subgraph struct {
	Sink  dag.NodeID
	Nodes []dag.NodeID
	Depth int
	Root  arch.PE
}

// Block is a monolithic unit executed by a single exec instruction: a set
// of cones placed onto disjoint subtree slots of the datapath, plus the
// placement artifacts produced by expansion.
type Block struct {
	Subgraphs []Subgraph

	// PEOps configures every PE for this block's exec cycle (idle when
	// unused, bypass for routing register values upward).
	PEOps []arch.PEOp
	// PortVal[i] is the external value fed to datapath input port i, or
	// InvalidVal. Multiple ports may carry the same value (the input
	// crossbar broadcasts a single bank read).
	PortVal []ValID
	// Inputs is the deduplicated PortVal content.
	Inputs []ValID
	// Outputs lists the values this block must write to the register
	// file: cone nodes with consumers outside the block, and DAG sinks.
	Outputs []ValID
	// OutPE[i] is the PE chosen to drive the write of Outputs[i] (the
	// highest-layer replica, which has the widest bank connectivity).
	OutPE []arch.PE
}

// Revision numbers the compiler's emission: bump it with any change to
// what Compile emits for some input (instructions, memory image, maps or
// stats), so that a persisted program of another revision is never taken
// for this compiler's output. It is part of every artifact's content
// address (artifact.Key).
const Revision = 4

// Options tunes compilation. The zero value is the paper's configuration.
// Every field is part of the program's content address (.dpuprog and every
// cache key); the search bounds of steps 1 and 3 are constants, and the
// seed of step 2's randomized tie-breaks is 0.
type Options struct {
	// RandomBanks replaces the conflict-aware allocator of step 2 with
	// uniform random placement; fig. 10(b) uses this as its baseline.
	RandomBanks bool
	// PartitionSize, when positive, coarsely partitions the DAG into
	// chunks of this many interior nodes that are decomposed into blocks
	// independently, the strategy the paper uses for multi-million-node
	// PCs (§V-B). Zero disables partitioning; Plan rejects a negative
	// value and one above math.MaxInt32, the artifact format's bound.
	PartitionSize int
}

// Stats reports what compilation did; the experiment harness consumes
// these for fig. 6(e), fig. 10, fig. 13 and Table I.
type Stats struct {
	Nodes          int // interior nodes executed
	Blocks         int
	Execs          int
	Copies         int // copy_4 instructions emitted
	CopiedWords    int // individual repaired words (the bank-conflict count)
	InputConflicts int // conflicts among block inputs (constraint F)
	OutputMoves    int // outputs written away from home (constraints G/H)
	Loads          int
	Stores         int
	SpillStores    int // values evicted by register pressure
	Reloads        int // values loaded back after a spill
	Nops           int
	Instructions   int
	Cycles         int     // instructions + pipeline drain
	PeakUtil       float64 // busiest exec: arithmetic PEs / total PEs
	MeanUtil       float64 // average over execs
	// CompileSeconds is the plan's time (steps 1–3) plus the time of the
	// Emit that produced this program (step 4), so emits sharing one plan
	// each count the plan once.
	CompileSeconds float64
}

// Compiled is the result of Compile or Emit: the program plus the
// metadata needed to run and verify it.
type Compiled struct {
	Prog *arch.Program
	// Graph is the binarized DAG the program executes.
	Graph *dag.Graph
	// Remap maps the caller's original node ids to Graph's ids, as
	// dag.Binarize returns it: it carries the caller's sinks onto
	// Graph's sinks in order, so output j of Graph is the caller's sink j.
	Remap []dag.NodeID
	// InputWord[i] is the data-memory word holding the i-th OpInput (in
	// Graph input order); the runner writes input values there.
	InputWord []int
	// ConstWord[i] is the data-memory word holding the i-th OpConst (in
	// Graph node-id order), -1 for a constant nothing reads. Prog.InitMem
	// is InitImage(Graph, ConstWord, len(Prog.InitMem)): the constants are
	// its only non-zero words.
	ConstWord []int
	// OutputWord maps every sink of Graph to the data-memory word that
	// holds its value after the program finishes.
	OutputWord map[dag.NodeID]int
	Stats      Stats
	// Revision is the compiler revision that emitted the program: Emit
	// sets Revision, a decoded artifact the one its payload records.
	Revision int
}

// CheckProgram returns an error unless c's program carries the
// instructions its stats count. A serving-decoded artifact's program
// (artifact.Store.GetServing) holds only its configuration, so whatever
// runs, encodes or reports on the instruction stream checks this first:
// such a program fails loudly instead of passing for an empty one.
func (c *Compiled) CheckProgram() error {
	if n := len(c.Prog.Instrs); n != c.Stats.Instructions {
		return fmt.Errorf("program carries %d instructions, its stats count %d (a serving-decoded program holds none)", n, c.Stats.Instructions)
	}
	return nil
}

func peOpFor(op dag.Op) arch.PEOp {
	switch op {
	case dag.OpAdd:
		return arch.PEAdd
	case dag.OpMul:
		return arch.PEMul
	}
	return arch.PEIdle
}
