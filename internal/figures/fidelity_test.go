package figures

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite FIDELITY.json from this build")

// ledgerPath is the checked-in ledger, at the repository root.
var ledgerPath = filepath.Join("..", "..", "FIDELITY.json")

// TestFidelityLedger regenerates FIDELITY.json at the scales it records
// (dpu-figures -record's defaults) and fails on any difference, as
// TestEmissionGolden does for emission: a change to what the compiler
// emits or the models read shows as a diff of the file. -update
// rewrites it.
func TestFidelityLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every figure at scale 1.0")
	}
	f, err := NewRunner(Config{Scale: 1, LargeScale: 0.05}).Fidelity()
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.MarshalLedger()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(ledgerPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("FIDELITY.json line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	t.Error("the fidelity ledger moved: if the change is deliberate, rerun with -update and commit the diff")
}
