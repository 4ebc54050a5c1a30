package arch

import "fmt"

// PE identifies a processing element by tree, layer and index. Layers
// count from 1 at the leaf layer (which reads the input ports) to D at the
// root; layer l of a tree holds 2^(D−l) PEs.
type PE struct {
	Tree  int
	Layer int
	Index int
}

// PEID flattens a PE coordinate into a dense id in [0, NumPEs): trees are
// laid out consecutively, and within a tree the leaf layer comes first.
func (c Config) PEID(p PE) int {
	perTree := (1 << uint(c.D)) - 1
	id := p.Tree * perTree
	// Offset of layer l within the tree: sum of 2^(D-k) for k<l.
	for k := 1; k < p.Layer; k++ {
		id += 1 << uint(c.D-k)
	}
	return id + p.Index
}

// PECoord is the inverse of PEID.
func (c Config) PECoord(id int) PE {
	perTree := (1 << uint(c.D)) - 1
	p := PE{Tree: id / perTree}
	rem := id % perTree
	for l := 1; l <= c.D; l++ {
		w := 1 << uint(c.D-l)
		if rem < w {
			p.Layer, p.Index = l, rem
			return p
		}
		rem -= w
	}
	panic(fmt.Sprintf("arch: PE id %d out of range", id))
}

// LayerWidth returns the number of PEs in layer l of one tree.
func (c Config) LayerWidth(l int) int { return 1 << uint(c.D-l) }

// Children returns the two PEs feeding p, or ok=false for leaf-layer PEs
// (whose operands come from the input ports).
func (c Config) Children(p PE) (left, right PE, ok bool) {
	if p.Layer <= 1 {
		return PE{}, PE{}, false
	}
	left = PE{Tree: p.Tree, Layer: p.Layer - 1, Index: 2 * p.Index}
	right = PE{Tree: p.Tree, Layer: p.Layer - 1, Index: 2*p.Index + 1}
	return left, right, true
}

// InputPorts returns the two global input-port indices read by a
// leaf-layer PE. Ports are numbered 0..B−1; tree t owns ports
// [t·2^D, (t+1)·2^D).
func (c Config) InputPorts(p PE) (int, int) {
	if p.Layer != 1 {
		panic("arch: InputPorts on non-leaf PE")
	}
	base := p.Tree*c.TreeInputs() + 2*p.Index
	return base, base + 1
}

// Wiring is the PE trees' wiring in table form, built once per
// configuration so the executors' per-instruction walks do no coordinate
// arithmetic.
type Wiring struct {
	// Layers[l] lists the PE ids of layer l (1 = leaf … D = root) in
	// ascending order; within a layer no PE feeds another.
	Layers [][]int
	// Left and Right are each PE's operand sources: global input ports
	// for the leaf layer, child PE ids above it.
	Left, Right []int
}

// Wiring tabulates c's PE trees.
func (c Config) Wiring() *Wiring {
	n := c.NumPEs()
	w := &Wiring{Layers: make([][]int, c.D+1), Left: make([]int, n), Right: make([]int, n)}
	ids := make([]int, 0, n)
	for l := 1; l <= c.D; l++ {
		start := len(ids)
		for t := 0; t < c.Trees(); t++ {
			for k := 0; k < c.LayerWidth(l); k++ {
				p := PE{Tree: t, Layer: l, Index: k}
				id := c.PEID(p)
				ids = append(ids, id)
				if l == 1 {
					w.Left[id], w.Right[id] = c.InputPorts(p)
				} else {
					left, right, _ := c.Children(p)
					w.Left[id], w.Right[id] = c.PEID(left), c.PEID(right)
				}
			}
		}
		w.Layers[l] = ids[start:len(ids):len(ids)]
	}
	return w
}

// MarkPorts sets used[port] to whether the leaf PE owning input port
// port consumes it under ops: ports are read on demand.
func (w *Wiring) MarkPorts(ops []PEOp, used []bool) {
	for _, id := range w.Layers[1] {
		used[w.Left[id]], used[w.Right[id]] = ops[id].Operands()
	}
}

// CanWrite reports whether the output interconnect connects PE p to bank.
func (c Config) CanWrite(p PE, bank int) bool {
	switch c.Output {
	case OutCrossbar:
		return true
	case OutPerLayer:
		// Bank group of tree t covers banks [t·2^D,(t+1)·2^D). Within the
		// group, bank j connects to the PE of layer l whose index is
		// j >> l — exactly one PE per layer per bank, and each PE of
		// layer l reaches 2^l banks.
		if p.Layer < 1 || p.Layer > c.D || bank/c.TreeInputs() != p.Tree {
			return false
		}
		j := bank % c.TreeInputs()
		return j>>uint(p.Layer) == p.Index
	case OutPerPE, OutOneToOne:
		bp, ok := c.bankPE(bank)
		return ok && bp == p
	}
	return false
}

// bankPE gives the unique PE connected to bank under the one-bank-one-PE
// topologies. A tree has 2^D banks but only 2^D−1 PEs; the spare bank
// (the last of the group) is attached to the root, matching the paper's
// note that the top PE gets two banks.
func (c Config) bankPE(bank int) (PE, bool) {
	tree := bank / c.TreeInputs()
	j := bank % c.TreeInputs()
	perTree := (1 << uint(c.D)) - 1
	if j >= perTree {
		return PE{Tree: tree, Layer: c.D, Index: 0}, true
	}
	return c.PECoord(tree*perTree + j), true
}

// LayerPE returns the PE of the given layer that can write bank under the
// per-layer topology; used to decode the exec instruction's write selects.
func (c Config) LayerPE(bank, layer int) PE {
	tree := bank / c.TreeInputs()
	j := bank % c.TreeInputs()
	return PE{Tree: tree, Layer: layer, Index: j >> uint(layer)}
}

// WriteSel encodes "PE p drives bank" as the select value stored in an
// exec instruction for this topology; see Instr.WriteSel.
func (c Config) WriteSel(bank int, p PE) (uint16, error) {
	if !c.CanWrite(p, bank) {
		return 0, fmt.Errorf("arch: PE %v cannot write bank %d under %s", p, bank, c.Output)
	}
	switch c.Output {
	case OutCrossbar:
		return uint16(c.PEID(p)), nil
	case OutPerLayer:
		return uint16(p.Layer - 1), nil
	default:
		return 0, nil
	}
}

// SelPE decodes a write select back to the driving PE.
func (c Config) SelPE(bank int, sel uint16) PE {
	switch c.Output {
	case OutCrossbar:
		return c.PECoord(int(sel))
	case OutPerLayer:
		return c.LayerPE(bank, int(sel)+1)
	default:
		p, _ := c.bankPE(bank)
		return p
	}
}
