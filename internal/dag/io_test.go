package dag

import (
	"bytes"
	"fmt"
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
