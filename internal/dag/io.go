package dag

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
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
//
// It tokenizes each line in the scanner's own buffer and collects the
// graph in flat arrays: an op per node, a value per const, the end of
// each node's arguments, and one argument list for the whole graph.
// After the last line it builds the node arena once, at its final
// length, with every node's Args a clipped view of the shared list.
func Read(r io.Reader, name string) (*Graph, error) {
	var (
		ops  []Op
		vals []float64 // one per const node, in id order
		ends []int32   // node i's arguments are args[ends[i-1]:ends[i]]
		args []NodeID
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		word, rest := nextField(sc.Bytes())
		if word == nil || word[0] == '#' {
			continue
		}
		switch string(word) {
		case "input":
			ops = push(ops, OpInput)
		case "const":
			f, rest := nextField(rest)
			if next, _ := nextField(rest); f == nil || next != nil {
				return nil, fmt.Errorf("dag: line %d: const needs one value", line)
			}
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dag: line %d: %v", line, err)
			}
			ops, vals = push(ops, OpConst), push(vals, v)
		case "add", "mul":
			f, rest := nextField(rest)
			if f == nil {
				return nil, fmt.Errorf("dag: line %d: %s needs arguments", line, word)
			}
			for ; f != nil; f, rest = nextField(rest) {
				a, err := strconv.Atoi(string(f))
				if err != nil {
					return nil, fmt.Errorf("dag: line %d: %v", line, err)
				}
				if a < 0 || a >= len(ops) {
					return nil, fmt.Errorf("dag: line %d: argument %d out of range", line, a)
				}
				args = push(args, NodeID(a))
			}
			op := OpAdd
			if string(word) == "mul" {
				op = OpMul
			}
			ops = push(ops, op)
		default:
			return nil, fmt.Errorf("dag: line %d: unknown op %q", line, word)
		}
		ends = push(ends, int32(len(args)))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("dag: empty graph")
	}
	g := &Graph{Name: name, nodes: make([]Node, len(ops))}
	var s int32
	for i, op := range ops {
		n := &g.nodes[i]
		n.Op = op
		if op == OpConst {
			n.Val, vals = vals[0], vals[1:]
		}
		// Clipped, so an append to one node's Args cannot overwrite the
		// next node's.
		if e := ends[i]; e > s {
			n.Args = args[s:e:e]
			s = e
		}
	}
	return g, nil
}

// push appends v to s, doubling its capacity when it is full: Read's
// arrays then reallocate about log2(n) times for n entries, and the
// bytes they allocate in all stay within twice their final size. (A
// plain append grows a large slice by a quarter; slices.Grow doubles,
// but allocates twice per growth under the race detector.)
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, 2*cap(s)+16), s...)
	}
	return append(s, v)
}

// nextField returns the first field of b and what follows it, splitting
// where strings.Fields does: at the ASCII spaces and at every rune
// unicode.IsSpace accepts; a byte that is not valid UTF-8 is not a space.
// It returns a nil field when b holds no field.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) {
		sp, w := asciiSpace[b[i]], 1
		if b[i] >= utf8.RuneSelf {
			sp, w = runeSpace(b[i:])
		}
		if !sp {
			break
		}
		i += w
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) {
		sp, w := asciiSpace[b[j]], 1
		if b[j] >= utf8.RuneSelf {
			sp, w = runeSpace(b[j:])
		}
		if sp {
			break
		}
		j += w
	}
	return b[i:j], b[j:]
}

// runeSpace reports whether b starts with a space rune, and the rune's
// byte length.
func runeSpace(b []byte) (bool, int) {
	r, w := utf8.DecodeRune(b)
	return unicode.IsSpace(r), w
}

// asciiSpace marks the bytes below utf8.RuneSelf that are spaces.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
