package figures

import (
	"bytes"
	"math"
	"testing"
)

func tinyRunner() *Runner {
	return NewRunner(Config{Scale: 0.04, LargeScale: 0.004})
}

// tables walks t and its parts, depth first.
func tables(t *Table, fn func(*Table)) {
	fn(t)
	for _, p := range t.Parts {
		tables(p, fn)
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	r := tinyRunner()
	for _, name := range Experiments() {
		tab, err := r.Run(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		rows := 0
		tables(tab, func(s *Table) {
			rows += len(s.Rows)
			for _, row := range s.Rows {
				if len(row.Vals) != len(s.Cols) || row.Paper != nil && len(row.Paper) != len(s.Cols) {
					t.Errorf("%s: row %q has %d values and %d paper values for %d columns",
						name, row.Label, len(row.Vals), len(row.Paper), len(s.Cols))
				}
			}
		})
		if rows == 0 {
			t.Errorf("%s: no rows", name)
		}
		if err := Render(&bytes.Buffer{}, tab); err != nil {
			t.Errorf("%s: render: %v", name, err)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := tinyRunner().Run("fig99"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestCacheReuse(t *testing.T) {
	r := tinyRunner()
	if _, err := r.Run("table1"); err != nil {
		t.Fatal(err)
	}
	n := len(r.cache)
	if n == 0 {
		t.Fatal("cache empty after table1")
	}
	// fig13 uses the same min-EDP evaluations; no new small-suite entries
	// should appear.
	if _, err := r.Run("fig13"); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != n {
		t.Errorf("cache grew from %d to %d; fig13 should fully reuse table1 evals", n, len(r.cache))
	}
}

func TestTable1ListsAllWorkloads(t *testing.T) {
	tab, err := tinyRunner().Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]float64{}
	tables(tab, func(s *Table) {
		for _, row := range s.Rows {
			nodes[row.Label] = s.Get(row.Label, "nodes(n)")
		}
	})
	for _, name := range []string{"tretail", "mnist", "nltcs", "msnbc", "msweb", "bnetflix",
		"bp_200", "west2021", "sieber", "jagmesh4", "rdb968", "dw2048",
		"pigs", "andes", "munin", "mildew"} {
		if !(nodes[name] > 0) {
			t.Errorf("table1 lists %s with %v nodes", name, nodes[name])
		}
	}
}

// TestFig10bNoRatioWithoutConflicts: at scale 0.04 the conflict-aware
// allocator leaves no conflict on tretail, so there is no reduction to
// report, only the two counts.
func TestFig10bNoRatioWithoutConflicts(t *testing.T) {
	tab, err := tinyRunner().Run("fig10b")
	if err != nil {
		t.Fatal(err)
	}
	random, ours := tab.Get("tretail", "random"), tab.Get("tretail", "ours")
	if ours != 0 || !(random > 0) {
		t.Fatalf("random %v, ours %v: want random conflicts and none of ours at this scale", random, ours)
	}
	if red := tab.Get("tretail", "reduction"); !math.IsNaN(red) {
		t.Errorf("reduction %v reported over zero conflicts", red)
	}
	if ref := paperValue(tab, "tretail", "reduction"); ref != 292 {
		t.Errorf("paper reduction %v, want 292", ref)
	}
}

// TestFig10cdSpillsAtFullScale: at scale 1.0 msnbc's live set outgrows
// R=32, so that variant spills and stays within its 32 registers while
// R=256 holds a peak above 32 without a spill. Below scale 1.0 neither
// variant spills, so the figure shows nothing there.
func TestFig10cdSpillsAtFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles msnbc at scale 1.0")
	}
	tab, err := NewRunner(Config{Scale: 1, LargeScale: 0.004}).Run("fig10cd")
	if err != nil {
		t.Fatal(err)
	}
	if spills, peak := tab.Get("with spilling", "spills"), tab.Get("with spilling", "peak"); !(spills > 0) || peak > 32 {
		t.Errorf("R=32: %v spills, peak %v; want spills and a peak of at most 32", spills, peak)
	}
	if spills, peak := tab.Get("without spilling", "spills"), tab.Get("without spilling", "peak"); spills != 0 || !(peak > 32) {
		t.Errorf("R=256: %v spills, peak %v; want no spill and a peak above 32", spills, peak)
	}
}

// TestRenderAlignsColumns: every column is as wide as its widest cell,
// so a label longer than the heading still leaves the value columns
// aligned; an unmeasured value prints "-" and reference values print on
// a "(paper)" line.
func TestRenderAlignsColumns(t *testing.T) {
	tab := &Table{
		Title: "T",
		Key:   "config",
		Cols:  []Col{{"lat(ns)", "%.3f"}, {"EDP", "%.2fx"}},
		Rows: []Row{
			{Label: "D=2,B=32,R=128,per-layer", Vals: []float64{0.741, 47.5}},
			{Label: "short", Vals: []float64{12.5, none}, Paper: []float64{none, 6}},
		},
		Notes: []string{"note"},
	}
	var b bytes.Buffer
	if err := Render(&b, tab); err != nil {
		t.Fatal(err)
	}
	want := "T\n" +
		"config                    lat(ns)     EDP\n" +
		"D=2,B=32,R=128,per-layer    0.741  47.50x\n" +
		"short                      12.500       -\n" +
		"(paper)                             6.00x\n" +
		"note\n"
	if b.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", b.String(), want)
	}
}

// The claims TestPaperClaims checks are pinned at these scales.
const claimScale, claimLargeScale = 0.1, 0.01

// knownGaps are the paper claims this reproduction does not hold at
// claimScale, each with what it reads there. A gap that starts to hold
// fails TestPaperClaims until it is removed from here; a claim moves in
// only by an edit that records what it reads.
var knownGaps = map[string]string{
	"fig14a: DPU-v2 mean > DPU mean":          "1.97 against 3.46 GOPS",
	"table3: DPU-v2 EDP < DPU EDP":            "40.3 against 5.8 pJ*ns",
	"fig11: min latency is the paper's point": "D=2,B=64,R=64 against D=3,B=64,R=128",
	"fig11: min energy is the paper's point":  "D=2,B=32,R=16 against D=3,B=16,R=64",
	"fig11: min EDP is the paper's point":     "D=2,B=32,R=16 against D=3,B=64,R=32",
}

// TestPaperClaims asserts every qualitative paper claim the harness
// reproduces at claimScale and names the ones it does not in knownGaps.
func TestPaperClaims(t *testing.T) {
	readings, err := NewRunner(Config{Scale: claimScale, LargeScale: claimLargeScale}).readClaims()
	if err != nil {
		t.Fatal(err)
	}
	claimed := map[string]bool{}
	for i, c := range paperClaims {
		claimed[c.name] = true
		got := readings[i]
		_, gap := knownGaps[c.name]
		switch {
		case gap && got.holds:
			t.Errorf("%s now holds (%s): remove from knownGaps", c.name, got.detail)
		case !gap && !got.holds:
			t.Errorf("%s does not hold: %s", c.name, got.detail)
		}
	}
	for name := range knownGaps {
		if !claimed[name] {
			t.Errorf("knownGaps names %q, which is not a claim", name)
		}
	}
}
