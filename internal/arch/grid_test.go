package arch

import (
	"math/rand"
	"testing"
)

// TestCodecAcrossGrid packs and unpacks random instruction streams on
// every configuration of the paper's design-space grid (all 48 points ×
// all supported output topologies), pinning the variable-length codec to
// the whole parameter space rather than a few hand-picked designs.
func TestCodecAcrossGrid(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		for _, bk := range []int{8, 16, 32, 64} {
			for _, rg := range []int{16, 32, 64, 128} {
				for _, topo := range []OutputTopology{OutCrossbar, OutPerLayer, OutPerPE} {
					cfg := Config{D: d, B: bk, R: rg, Output: topo}.Normalize()
					if err := cfg.Validate(); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(d*1000 + bk*10 + rg)))
					p := NewProgram(cfg)
					for i := 0; i < 25; i++ {
						mustAppend(t, p, randomInstr(rng, cfg))
					}
					back, err := Unpack(p.Pack(), cfg, len(p.Instrs))
					if err != nil {
						t.Fatalf("%v: %v", cfg, err)
					}
					for i := range back {
						if !instrEqual(p.Instrs[i], back[i]) {
							t.Fatalf("%v: instruction %d (%v) did not round trip",
								cfg, i, p.Instrs[i].Kind)
						}
					}
					// The widths table must agree with the encoder for
					// every kind present in the stream.
					w := WidthsOf(cfg)
					total := 0
					for _, in := range p.Instrs {
						total += w.Len(in.Kind)
					}
					if total != p.BitSize() {
						t.Fatalf("%v: BitSize %d != summed widths %d", cfg, p.BitSize(), total)
					}
				}
			}
		}
	}
}

// TestWidthsMonotoneInParameters checks the encoding geometry scales the
// way the hardware does: wider register files need longer addresses,
// more banks need more crossbar selects, deeper trees more PE fields.
func TestWidthsMonotoneInParameters(t *testing.T) {
	base := WidthsOf(Config{D: 2, B: 16, R: 32, Output: OutPerLayer})
	moreR := WidthsOf(Config{D: 2, B: 16, R: 128, Output: OutPerLayer})
	if moreR.Exec <= base.Exec || moreR.ReadAddr <= base.ReadAddr {
		t.Error("exec length must grow with R")
	}
	moreB := WidthsOf(Config{D: 2, B: 64, R: 32, Output: OutPerLayer})
	if moreB.Exec <= base.Exec || moreB.Load <= base.Load {
		t.Error("exec/load length must grow with B")
	}
	deeper := WidthsOf(Config{D: 3, B: 16, R: 32, Output: OutPerLayer})
	if deeper.Exec <= base.Exec {
		t.Error("exec length must grow with D (more PEs)")
	}
	if base.IL != base.Exec {
		t.Error("exec must be the longest instruction")
	}
}
