package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean")
	}
}

func TestMeanTable(t *testing.T) {
	vals := [][][]float64{
		{{0.1}, {0.2, 0.4}},
		{{1}, {}},
	}
	tab := MeanTable("T", []string{"row", "a", "b"}, []string{"x", "y"},
		func(row, col int) []float64 { return vals[row][col] },
		func(col int, v float64) string { return fmt.Sprintf("%d:%.2f", col, v) }, true)
	want := [][]string{
		{"x", "0:0.10", "1:0.30", "2:0.20"},
		{"y", "0:1.00", "1:0.00", "2:0.50"},
	}
	if !reflect.DeepEqual(tab.Columns, []string{"row", "a", "b", "average"}) {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Fatalf("rows = %v, want %v", tab.Rows, want)
	}

	// Without the average column the header is used as given, and the
	// mean of one value is that value exactly.
	header := []string{"row", "a"}
	v := 0.1 + 0.2
	tab = MeanTable("", header, []string{"x"},
		func(int, int) []float64 { return []float64{v} },
		func(_ int, got float64) string { return fmt.Sprint(got == v) }, false)
	if len(header) != 2 || !reflect.DeepEqual(tab.Rows, [][]string{{"x", "true"}}) {
		t.Fatalf("header %v, rows %v", header, tab.Rows)
	}
}

func TestTableString(t *testing.T) {
	tab := NewTable("Title", "a", "bb")
	tab.AddRow("x", "y")
	tab.AddRow("z", fmt.Sprintf("%.1f", 3.14159))
	s := tab.String()
	for _, want := range []string{"Title", "a", "bb", "x", "y", "z", "3.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on row mismatch")
		}
	}()
	NewTable("t", "a", "b").AddRow("only-one")
}

func TestCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("1,2", `say "hi"`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"1,2"`) {
		t.Errorf("comma not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("header missing: %s", csv)
	}
}

func TestMarkdown(t *testing.T) {
	tab := NewTable("My Table", "a", "b")
	tab.AddRow("1", "2")
	md := tab.Markdown()
	if !strings.Contains(md, "**My Table**") {
		t.Error("title missing")
	}
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("markdown rows wrong:\n%s", md)
	}
	if !strings.Contains(md, "|---|---|") {
		t.Error("separator missing")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.083, true) != "+8.3%" {
		t.Errorf("signed: %s", Pct(0.083, true))
	}
	if Pct(0.612, false) != "61.2%" {
		t.Errorf("unsigned: %s", Pct(0.612, false))
	}
	if Pct(-0.03, true) != "-3.0%" {
		t.Errorf("negative: %s", Pct(-0.03, true))
	}
}
