package dag_test

import (
	"hash/fnv"
	"testing"

	"dpuv2/internal/dag"
	"dpuv2/internal/pc"
)

// Binarize knows its output size before it starts (every k-ary node
// becomes max(1, k−1) binary ones, leaves carry over, plus the neutral
// constants 1-ary nodes need) and reserves it in one allocation. The
// fingerprints pin the output node for node, and the remap checksum the
// id mapping, to what the unpresized node-by-node build produced.
func TestBinarizePresizesExactly(t *testing.T) {
	unary := dag.New("unary")
	x := unary.AddInput()
	unary.AddOp(dag.OpMul, unary.AddOp(dag.OpAdd, x), unary.AddOp(dag.OpMul, x), x, x)
	for _, tc := range []struct {
		name      string
		g         *dag.Graph
		fp        string
		remapHash uint64
	}{
		{"tretail@0.1", pc.Build(pc.Suite()[0], 0.1), "92c1994f74e88057d4ce9bb662b1af914ed184be661bcbd57dc20b3b027d9d3d", 0x5219c378ace80525},
		{"msnbc@0.1", pc.Build(pc.Suite()[3], 0.1), "5e7f648ac90eab23e8c6a707ed1901abcc6eea193795e2861c408c0681172c52", 0xaa8def9c8f789b55},
		{"random-4ary", dag.RandomGraph(dag.RandomConfig{Inputs: 12, Interior: 400, MaxArgs: 4, MulFrac: 0.5, Seed: 7}), "f4db3d646ad2c3c56ee0f5494185ecbda647e641eca33c34f0061b5a1c4df2dd", 0x8a67eb9965746600},
		{"unary", unary, "ed84f6c88ffb90edd23fd0177e3d5f7a37dd3c73d872e72f0d7f85048e3f6b1a", 0x96b6b6de411469d4},
	} {
		if tc.g.IsBinary() {
			t.Fatalf("%s: already binary, test is vacuous", tc.name)
		}
		bg, remap := dag.Binarize(tc.g)
		if !bg.IsBinary() {
			t.Errorf("%s: output not binary", tc.name)
		}
		if h := bg.Headroom(); h < 0 || h > 2 {
			t.Errorf("%s: arena headroom %d nodes after Binarize, want ≤ 2 (%d nodes)", tc.name, h, bg.NumNodes())
		}
		h := fnv.New64a()
		for _, id := range remap {
			h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
		}
		if got := bg.Fingerprint().String(); got != tc.fp || h.Sum64() != tc.remapHash {
			t.Errorf("%s: binarized graph moved: fingerprint %s remap %#x, want %s %#x", tc.name, got, h.Sum64(), tc.fp, tc.remapHash)
		}
	}
}
