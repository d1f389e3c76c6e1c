package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestFiguresGolden pins every figure and ablation byte for byte: the
// ID, caption and rendered table of All() followed by Ablations() on
// the tiny runner. The memo-cache size pins that the figures still
// submit the same set of runs. Regenerate with -update only when a
// figure deliberately changes.
func TestFiguresGolden(t *testing.T) {
	r := tinyRunner(t)
	figs, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	abl, err := r.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range append(figs, abl...) {
		fmt.Fprintf(&buf, "=== %s ===\n%s\n\n%s\n", f.ID, f.Caption, f.Table.String())
	}
	checkGolden(t, "figures.golden", buf.Bytes())
	if n := r.CacheSize(); n != 117 {
		t.Fatalf("figures ran %d distinct simulations, want 117", n)
	}
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
