package dag

import "fmt"

// Eval computes the value of every node given values for the OpInput
// leaves, in input-id order. It is the functional reference against which
// the cycle-accurate simulator is verified: the simulator executes the
// same float64 operations, so matching results must be bit-exact for an
// identical operation tree (associativity differences introduced by
// binarization are exercised separately in tests).
func Eval(g *Graph, inputs []float64) ([]float64, error) {
	vals := make([]float64, g.NumNodes())
	next := 0
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		switch n.Op {
		case OpInput:
			if next >= len(inputs) {
				return nil, fmt.Errorf("dag: %d input values provided, need more", len(inputs))
			}
			vals[i] = inputs[next]
			next++
		case OpConst:
			vals[i] = n.Val
		case OpAdd:
			acc := vals[n.Args[0]]
			for _, a := range n.Args[1:] {
				acc += vals[a]
			}
			vals[i] = acc
		case OpMul:
			acc := vals[n.Args[0]]
			for _, a := range n.Args[1:] {
				acc *= vals[a]
			}
			vals[i] = acc
		default:
			return nil, fmt.Errorf("dag: node %d has unknown op %v", i, n.Op)
		}
	}
	if next != len(inputs) {
		return nil, fmt.Errorf("dag: %d input values provided, graph has %d inputs", len(inputs), next)
	}
	return vals, nil
}
