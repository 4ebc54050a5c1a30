package compiler

import (
	"fmt"

	"dpuv2/internal/arch"
	"dpuv2/internal/dag"
)

// Step 2a — spatial expansion. Each cone is unrolled onto the full binary
// subtree of its slot: the sink sits at the slot root, every node's
// in-cone arguments occupy its PE's children, in-cone fan-out is realized
// by replication (the same node placed at several PEs), and external
// values (register-file residents) enter at leaf input ports and ride
// bypass chains up to their consumer — interior PEs have no register read
// ports, only the leaf layer does (§III-A).

type expansion struct {
	cfg    arch.Config
	inCone []int32 // node -> stamp when in current block
	stamp  int32
	// top[n] is the highest-layer PE node n is placed at in the current
	// block, the first placed on a tie; layer 0 until n is placed.
	top []arch.PE
	// isInput[v] == stamp marks a value already in the block's Inputs.
	isInput []int32
}

// reset readies e for a graph of n nodes, reusing its arrays.
func (e *expansion) reset(cfg arch.Config, n int) {
	e.cfg, e.stamp = cfg, 0
	e.inCone, e.top, e.isInput = resize(e.inCone, n), resize(e.top, n), resize(e.isInput, n)
}

// expand fills block.PEOps/PortVal/Inputs/Outputs/OutPE.
func (e *expansion) expand(g *dag.Graph, block *Block) error {
	e.stamp++
	for _, sg := range block.Subgraphs {
		for _, n := range sg.Nodes {
			e.inCone[n] = e.stamp
			e.top[n] = arch.PE{}
		}
	}
	block.PEOps = make([]arch.PEOp, e.cfg.NumPEs())
	block.PortVal = make([]ValID, e.cfg.B)
	for i := range block.PortVal {
		block.PortVal[i] = InvalidVal
	}

	var place func(n dag.NodeID, pe arch.PE) error
	var route func(v ValID, pe arch.PE) error

	// route carries an external value from a leaf port up to pe's output
	// through bypass PEs.
	route = func(v ValID, pe arch.PE) error {
		id := e.cfg.PEID(pe)
		if block.PEOps[id] != arch.PEIdle {
			return fmt.Errorf("compiler: bypass collision at PE %+v", pe)
		}
		block.PEOps[id] = arch.PEBypassL
		if pe.Layer == 1 {
			p0, _ := e.cfg.InputPorts(pe)
			block.PortVal[p0] = v
			return nil
		}
		c0, _, _ := e.cfg.Children(pe)
		return route(v, c0)
	}

	place = func(n dag.NodeID, pe arch.PE) error {
		id := e.cfg.PEID(pe)
		if block.PEOps[id] != arch.PEIdle {
			return fmt.Errorf("compiler: placement collision at PE %+v", pe)
		}
		op := peOpFor(g.Op(n))
		if op == arch.PEIdle {
			return fmt.Errorf("compiler: node %d has non-arithmetic op %v", n, g.Op(n))
		}
		block.PEOps[id] = op
		if pe.Layer > e.top[n].Layer {
			e.top[n] = pe
		}
		args := g.Args(n)
		if len(args) != 2 {
			return fmt.Errorf("compiler: node %d has %d args; graph not binarized", n, len(args))
		}
		if pe.Layer == 1 {
			p0, p1 := e.cfg.InputPorts(pe)
			ports := [2]int{p0, p1}
			for i, a := range args {
				if e.inCone[a] == e.stamp {
					return fmt.Errorf("compiler: leaf-layer node %d has in-cone arg %d", n, a)
				}
				block.PortVal[ports[i]] = ValID(a)
			}
			return nil
		}
		c0, c1, _ := e.cfg.Children(pe)
		children := [2]arch.PE{c0, c1}
		for i, a := range args {
			if e.inCone[a] == e.stamp {
				if err := place(a, children[i]); err != nil {
					return err
				}
			} else if err := route(ValID(a), children[i]); err != nil {
				return err
			}
		}
		return nil
	}

	for _, sg := range block.Subgraphs {
		if err := place(sg.Sink, sg.Root); err != nil {
			return err
		}
	}

	// Distinct inputs; every port value is a node's output.
	for _, v := range block.PortVal {
		if v != InvalidVal && e.isInput[v] != e.stamp {
			e.isInput[v] = e.stamp
			block.Inputs = append(block.Inputs, v)
		}
	}

	// Outputs: nodes with any consumer outside the block, or DAG sinks.
	for _, sg := range block.Subgraphs {
		for _, n := range sg.Nodes {
			io := len(g.Succs(n)) == 0
			for _, s := range g.Succs(n) {
				if e.inCone[s] != e.stamp {
					io = true
					break
				}
			}
			if !io {
				continue
			}
			block.Outputs = append(block.Outputs, ValID(n))
			block.OutPE = append(block.OutPE, e.top[n])
		}
	}
	return nil
}
