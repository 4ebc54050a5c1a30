package dag

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := RandomGraph(RandomConfig{Inputs: 9, Interior: 120, MaxArgs: 4, MulFrac: 0.4, Seed: 5})
	g.Node(3).Val = 0 // ensure at least one interesting const path below
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, g.Name)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() {
		t.Fatalf("round trip changed node count: %d vs %d", back.NumNodes(), g.NumNodes())
	}
	for i := 0; i < g.NumNodes(); i++ {
		a, b := g.Node(NodeID(i)), back.Node(NodeID(i))
		if a.Op != b.Op || a.Val != b.Val || len(a.Args) != len(b.Args) {
			t.Fatalf("node %d differs after round trip", i)
		}
		for j := range a.Args {
			if a.Args[j] != b.Args[j] {
				t.Fatalf("node %d arg %d differs", i, j)
			}
		}
	}
}

func TestReadWithCommentsAndBlanks(t *testing.T) {
	src := `# a tiny dag
input

const 2.5
add 0 1
mul 2 2 0
`
	g, err := Read(strings.NewReader(src), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("got %d nodes", g.NumNodes())
	}
	vals, err := Eval(g, []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if vals[3] != 4*4*1.5 {
		t.Fatalf("eval = %v, want 24", vals[3])
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                     // empty
		"frobnicate 1 2",       // unknown op
		"const",                // missing value
		"const two",            // bad float
		"add",                  // no args
		"input\nadd 0 7",       // forward/out-of-range reference
		"input\nadd zero zero", // non-numeric args
	}
	for _, src := range bad {
		if _, err := Read(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("Read(%q) should fail", src)
		}
	}
}

// TestReadLongLine: a single node line of more than 64 KiB (a wide k-ary
// node) parses — Read's line cap is 16 MiB, not bufio's default 64 KiB.
func TestReadLongLine(t *testing.T) {
	const inputs = 20000
	var sb strings.Builder
	sb.WriteString(strings.Repeat("input\n", inputs))
	sb.WriteString("add")
	for i := 0; i < inputs; i++ {
		fmt.Fprintf(&sb, " %d", i)
	}
	sb.WriteByte('\n')
	if lineLen := sb.Len() - 6*inputs; lineLen <= 64<<10 {
		t.Fatalf("test premise: line is %d bytes, want > 64 KiB", lineLen)
	}
	g, err := Read(strings.NewReader(sb.String()), "wide")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Node(NodeID(inputs)).Args); got != inputs {
		t.Errorf("wide node has %d arguments, want %d", got, inputs)
	}
}

// FuzzGraphRead: Read never panics on arbitrary text, a graph it
// accepts survives Write and a second Read with the same Fingerprint,
// and Binarize keeps its structural contract on it (checkBinarized:
// binary output, a remap entry per node, sinks in order).
func FuzzGraphRead(f *testing.F) {
	f.Add("# a tiny dag\ninput\n\nconst 2.5\nadd 0 1\nmul 2 2 0\n")
	f.Add("input\nconst NaN\nconst -0\nconst +Inf\nconst 0x1p-3\nadd 0 1 2 3 4\n")
	f.Add("input\nadd 0 7\n")
	f.Add("mul\n")
	f.Add("const\n")
	var buf bytes.Buffer
	if err := Write(&buf, RandomGraph(RandomConfig{Inputs: 4, Interior: 20, MaxArgs: 3, MulFrac: 0.5, Seed: 1})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Read(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, g); err != nil {
			t.Fatalf("accepted graph does not serialize: %v", err)
		}
		back, err := Read(&out, "back")
		if err != nil {
			t.Fatalf("written graph does not read back: %v\n%s", err, out.String())
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint\nin:\n%s\nout:\n%s", src, out.String())
		}
		bg, remap := Binarize(g)
		if err := checkBinarized(g, bg, remap); err != nil {
			t.Fatalf("Binarize: %v\nin:\n%s", err, src)
		}
	})
}

// readFields is Read as it was written over strings.Fields, one
// AddOp per line: the oracle FuzzReadMatchesFields holds Read to.
func readFields(r io.Reader, name string) (*Graph, error) {
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

// FuzzReadMatchesFields: Read, which tokenizes the text in place,
// accepts and rejects exactly what readFields does, with the same error
// text, and builds the same graph: node count, Fingerprint and every
// node's op, arguments and constant bits. Each node's Args is clipped to
// its own arguments. Parse, on its own, rejects with the same text and
// hashes the same Fingerprint without building a node.
func FuzzReadMatchesFields(f *testing.F) {
	for _, sep := range []string{"\u0085", "\u00a0", "\u1680", "\u2028", "\u3000", "\v", "\f", "\r\n"} {
		f.Add("input" + sep + "\ninput\nadd" + sep + "0" + sep + "1" + sep + "\n" + sep + "mul 2" + sep + "0\n")
	}
	f.Add("input\n\xff\n")
	f.Add("input\nadd 0 \xff0\n")
	f.Add("input\x80\ninput\nmul 0\xc21\n")
	f.Add("input\nadd +1 0\nadd 01 -0\n")
	f.Add("input\nadd 1_0 0\n")
	f.Add("const nan\nconst Inf\nconst 0x1p-3\nadd 0 1 2\n")
	f.Add("  # comment\ninput\n#add 0\n")
	f.Add("input extra\nadd 0\n")
	f.Add("const 1 2\n")
	f.Add("add\n")
	f.Add("input\nadd 1\n")
	f.Add("input\nadd 0 7\n")
	f.Add("input\nadd -1\n")
	f.Add("input\nadd 99999999999999999999\n")
	f.Add("frob 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		got, err := Read(strings.NewReader(src), "fuzz")
		want, werr := readFields(strings.NewReader(src), "fuzz")
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("Read error %v, strings.Fields reader %v\nin: %q", err, werr, src)
		}
		p, perr := Parse(src)
		if (perr == nil) != (werr == nil) || perr != nil && perr.Error() != werr.Error() {
			t.Fatalf("Parse error %v, strings.Fields reader %v\nin: %q", perr, werr, src)
		}
		if err != nil {
			return
		}
		if p.Fingerprint() != want.Fingerprint() {
			t.Fatalf("parsed: fingerprint %s, want %s\nin: %q", p.Fingerprint().Short(), want.Fingerprint().Short(), src)
		}
		if got.NumNodes() != want.NumNodes() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%d nodes, fingerprint %s; want %d, %s\nin: %q",
				got.NumNodes(), got.Fingerprint().Short(), want.NumNodes(), want.Fingerprint().Short(), src)
		}
		for i := range got.NumNodes() {
			a, b := got.Node(NodeID(i)), want.Node(NodeID(i))
			if a.Op != b.Op || math.Float64bits(a.Val) != math.Float64bits(b.Val) ||
				!slices.Equal(a.Args, b.Args) || cap(a.Args) != len(a.Args) {
				t.Fatalf("node %d: %v %v %v (cap %d), want %v %v %v\nin: %q",
					i, a.Op, a.Args, a.Val, cap(a.Args), b.Op, b.Args, b.Val, src)
			}
		}
	})
}

// TestReadLineLimit: a line of 1<<24 bytes or more, counting a final
// '\r' but not the '\n', is rejected with bufio.ErrTooLong's text, and
// one byte less is accepted, with and without a final '\n' — the
// bufio.Scanner's rule, which readFields still runs on. Read and Parse
// agree with it.
func TestReadLineLimit(t *testing.T) {
	comment := "#" + strings.Repeat("x", 1<<24)
	for _, c := range []struct {
		name string
		line string // the last line, after "input\n"
		ok   bool
	}{
		{"limit-1 with newline", comment[:1<<24-1] + "\n", true},
		{"limit-1 at EOF", comment[:1<<24-1], true},
		{"limit with newline", comment[:1<<24] + "\n", false},
		{"limit at EOF", comment[:1<<24], false},
		{"limit-1 ending in CR at EOF", comment[:1<<24-2] + "\r", true},
		{"limit ending in CR at EOF", comment[:1<<24-1] + "\r", false},
	} {
		src := "input\n" + c.line
		_, werr := readFields(strings.NewReader(src), "limit")
		_, rerr := Read(strings.NewReader(src), "limit")
		_, perr := Parse(src)
		want := ""
		if !c.ok {
			want = "bufio.Scanner: token too long"
		}
		for _, got := range []struct {
			who string
			err error
		}{{"readFields", werr}, {"Read", rerr}, {"Parse", perr}} {
			if msg := fmt.Sprint(got.err); got.err == nil && want != "" || got.err != nil && msg != want {
				t.Errorf("%s: %s: error %v, want %q", c.name, got.who, got.err, want)
			}
		}
	}
}

// TestReadAllocationsPerGraph: Read allocates a bounded number of times
// whatever the graph's size (its arrays grow by doubling, so a graph
// 1000 times larger costs a few dozen more allocations, not one per
// line), and its bytes are a small multiple of the text.
func TestReadAllocationsPerGraph(t *testing.T) {
	text := func(interior int) string {
		var buf bytes.Buffer
		g := RandomGraph(RandomConfig{Inputs: interior/10 + 1, Interior: interior, MaxArgs: 4, MulFrac: 0.4, Seed: 3})
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	read := func(src string) {
		if _, err := Read(strings.NewReader(src), "alloc"); err != nil {
			t.Fatal(err)
		}
	}
	small, large := text(9), text(10000)
	few := testing.AllocsPerRun(5, func() { read(small) })
	many := testing.AllocsPerRun(5, func() { read(large) })
	if many > few+40 {
		t.Errorf("%v allocations for %d bytes of text, %v for %d", many, len(large), few, len(small))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read(large)
	runtime.ReadMemStats(&after)
	// Measured 979,904 bytes, 4.8 times the 202,298-byte text: its
	// copy, the flat arrays and the node arena (1 MiB more when Read
	// took a scanner buffer).
	bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(6*len(large))
	if bytes > limit {
		t.Errorf("Read of %d bytes of text allocated %d bytes, limit %d", len(large), bytes, limit)
	}
	t.Logf("%v allocations for %d bytes of text, %v for %d; %d bytes allocated for the larger", many, len(large), few, len(small), bytes)
}
