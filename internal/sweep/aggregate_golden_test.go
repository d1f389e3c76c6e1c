package sweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestAggregateGolden pins the sweep artifacts byte for byte: the
// rendered text and the JSON body of the same grid TestAggregate runs.
// Regenerate with -update only when an artifact deliberately changes.
func TestAggregateGolden(t *testing.T) {
	g, err := Grid{
		Workloads:   []string{"mcf", "milc"},
		Schemes:     []string{"base", "redhip"},
		Geometries:  []string{"smoke"},
		Seeds:       []uint64{1, 2},
		RefsPerCore: []uint64{2000},
	}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	children := g.Expand()
	a, err := Aggregate(g, children, runGrid(t, g, children))
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	body, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(a.Text)
	buf.WriteString("\n--- json ---\n")
	buf.Write(body)
	buf.WriteByte('\n')
	checkGolden(t, "aggregate.golden", buf.Bytes())
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
