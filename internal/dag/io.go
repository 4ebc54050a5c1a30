package dag

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The paper's compiler accepts DAGs "in any of the popular graph formats"
// (§IV). This file provides the repository's interchange format — a
// line-oriented node list that is trivial to produce from NetworkX or any
// adjacency dump — plus Graphviz DOT export for visualization.
//
// Format, one node per line, ids implicit and consecutive from 0:
//
//	# comment
//	input
//	const 2.5
//	add 0 1
//	mul 2 0 1        (k-ary nodes allowed; Binarize before compiling)

// Write serializes g in the text node-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# dag %q nodes=%d\n", g.Name, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		switch n.Op {
		case OpInput:
			fmt.Fprintln(bw, "input")
		case OpConst:
			fmt.Fprintf(bw, "const %s\n", strconv.FormatFloat(n.Val, 'g', -1, 64))
		case OpAdd, OpMul:
			bw.WriteString(n.Op.String())
			for _, a := range n.Args {
				fmt.Fprintf(bw, " %d", a)
			}
			bw.WriteByte('\n')
		default:
			return fmt.Errorf("dag: cannot serialize op %v", n.Op)
		}
	}
	return bw.Flush()
}

// Read parses the text node-list format produced by Write.
func Read(r io.Reader, name string) (*Graph, error) {
	g := New(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "input":
			g.AddInput()
		case "const":
			if len(fields) != 2 {
				return nil, fmt.Errorf("dag: line %d: const needs one value", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("dag: line %d: %v", line, err)
			}
			g.AddConst(v)
		case "add", "mul":
			op := OpAdd
			if fields[0] == "mul" {
				op = OpMul
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("dag: line %d: %s needs arguments", line, fields[0])
			}
			args := make([]NodeID, 0, len(fields)-1)
			for _, f := range fields[1:] {
				a, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("dag: line %d: %v", line, err)
				}
				if a < 0 || a >= g.NumNodes() {
					return nil, fmt.Errorf("dag: line %d: argument %d out of range", line, a)
				}
				args = append(args, NodeID(a))
			}
			g.AddOp(op, args...)
		default:
			return nil, fmt.Errorf("dag: line %d: unknown op %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("dag: empty graph")
	}
	return g, nil
}
