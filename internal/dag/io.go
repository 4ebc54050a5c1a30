package dag

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// Read parses the text node-list format produced by Write: it reads r
// to the end, parses the text (see Parse) and builds the graph.
func Read(r io.Reader, name string) (*Graph, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	p, err := Parse(sb.String())
	if err != nil {
		return nil, err
	}
	return p.Graph(name), nil
}

// maxLine bounds one line of graph text, as the 16 MiB token limit of
// the bufio.Scanner this parser replaced did: a line of maxLine bytes
// or more, counting a trailing '\r' but not the '\n', is rejected with
// bufio.ErrTooLong.
const maxLine = 1 << 24

// Parsed is graph text parsed into flat arrays: an op per node, a value
// per const, the end of each node's arguments, and one argument list
// for the whole graph. It yields the graph's Fingerprint without
// building nodes, and builds the Graph only when asked, so a server
// can key its cache on the text and build a graph only on a miss. A
// Parsed is not safe for concurrent use.
type Parsed struct {
	ops  []Op
	vals []float64 // one per const node, in id order
	ends []int32   // node i's arguments are args[ends[i-1]:ends[i]]
	args []NodeID
	fp   *Fingerprint // memoized by Fingerprint
}

// Parse parses the text node-list format produced by Write, tokenizing
// each line in place. Lines end at '\n'; a '\r' before it is a space to
// nextField, so CRLF text needs no case of its own.
func Parse(text string) (*Parsed, error) {
	// A node line takes at least 6 bytes ("input\n"), so n bounds the
	// nodes by the lines and by the bytes: ops and ends never grow, and
	// what is allocated up front stays near twice the text however many
	// blank or comment lines it holds.
	n := min(strings.Count(text, "\n")+1, len(text)/6+1)
	p := &Parsed{ops: make([]Op, 0, n), ends: make([]int32, 0, n), args: make([]NodeID, 0, 2*n)}
	for line := 1; text != ""; line++ {
		ln := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			ln, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if len(ln) >= maxLine {
			return nil, bufio.ErrTooLong
		}
		word, rest := nextField(ln)
		if word == "" || word[0] == '#' {
			continue
		}
		switch word {
		case "input":
			p.ops = push(p.ops, OpInput)
		case "const":
			f, rest := nextField(rest)
			if next, _ := nextField(rest); f == "" || next != "" {
				return nil, fmt.Errorf("dag: line %d: const needs one value", line)
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dag: line %d: %v", line, err)
			}
			p.ops, p.vals = push(p.ops, OpConst), push(p.vals, v)
		case "add", "mul":
			f, rest := nextField(rest)
			if f == "" {
				return nil, fmt.Errorf("dag: line %d: %s needs arguments", line, word)
			}
			for ; f != ""; f, rest = nextField(rest) {
				a, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("dag: line %d: %v", line, err)
				}
				if a < 0 || a >= len(p.ops) {
					return nil, fmt.Errorf("dag: line %d: argument %d out of range", line, a)
				}
				p.args = push(p.args, NodeID(a))
			}
			op := OpAdd
			if word == "mul" {
				op = OpMul
			}
			p.ops = push(p.ops, op)
		default:
			return nil, fmt.Errorf("dag: line %d: unknown op %q", line, word)
		}
		p.ends = push(p.ends, int32(len(p.args)))
	}
	if len(p.ops) == 0 {
		return nil, fmt.Errorf("dag: empty graph")
	}
	return p, nil
}

// node returns node i's op, constant value and arguments, clipped (nil
// for a leaf); vc counts the consts before i.
func (p *Parsed) node(i int, vc *int) (op Op, v float64, args []NodeID) {
	op = p.ops[i]
	if op == OpConst {
		v = p.vals[*vc]
		*vc++
	}
	s, e := int32(0), p.ends[i]
	if i > 0 {
		s = p.ends[i-1]
	}
	if e > s {
		args = p.args[s:e:e]
	}
	return op, v, args
}

// Fingerprint returns the Fingerprint of the graph the text describes,
// hashed from the flat arrays in Graph.Fingerprint's exact layout.
func (p *Parsed) Fingerprint() Fingerprint {
	if p.fp == nil {
		var h fingerprinter
		h.begin(len(p.ops))
		vc := 0
		for i := range p.ops {
			h.node(p.node(i, &vc))
		}
		f := h.sum()
		p.fp = &f
	}
	return *p.fp
}

// Graph builds the graph: the node arena is allocated once at its final
// length, every node's Args is a clipped view of the shared argument
// list (so an append to one node's Args cannot overwrite the next
// node's), and a fingerprint already computed seeds the graph's memo.
// The graph shares p's arrays: p must not be used to build another.
func (p *Parsed) Graph(name string) *Graph {
	g := &Graph{Name: name, nodes: make([]Node, len(p.ops))}
	vc := 0
	for i := range g.nodes {
		n := &g.nodes[i]
		n.Op, n.Val, n.Args = p.node(i, &vc)
	}
	if p.fp != nil {
		g.fp.Store(p.fp)
	}
	return g
}

// push appends v to s, doubling its capacity when it is full: Parse's
// vals and args then reallocate about log2(n) times for n entries, and the
// bytes they allocate in all stay within twice their final size. (A
// plain append grows a large slice by a quarter; slices.Grow doubles,
// but allocates twice per growth under the race detector.)
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, 2*cap(s)+16), s...)
	}
	return append(s, v)
}

// nextField returns the first field of s and what follows it, splitting
// where strings.Fields does: at the ASCII spaces and at every rune
// unicode.IsSpace accepts; a byte that is not valid UTF-8 is not a space.
// It returns an empty field when s holds no field.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		sp, w := asciiSpace[s[i]], 1
		if s[i] >= utf8.RuneSelf {
			sp, w = runeSpace(s[i:])
		}
		if !sp {
			break
		}
		i += w
	}
	if i == len(s) {
		return "", ""
	}
	j := i
	for j < len(s) {
		sp, w := asciiSpace[s[j]], 1
		if s[j] >= utf8.RuneSelf {
			sp, w = runeSpace(s[j:])
		}
		if sp {
			break
		}
		j += w
	}
	return s[i:j], s[j:]
}

// runeSpace reports whether s starts with a space rune, and the rune's
// byte length.
func runeSpace(s string) (bool, int) {
	r, w := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r), w
}

// asciiSpace marks the bytes below utf8.RuneSelf that are spaces.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}
