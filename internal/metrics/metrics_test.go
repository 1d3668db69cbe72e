package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Demo",
		Columns: []string{"system", "value"},
	}
	tbl.AddRow("microvm", 14.85)
	tbl.AddRow("lupine", 4.0)
	tbl.AddRow("exact", 3)
	tbl.Notes = append(tbl.Notes, "a note")
	out := tbl.Render()
	for _, want := range []string{"=== Demo ===", "system", "microvm", "14.85", "lupine", "4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tbl.String() != out {
		t.Error("String != Render")
	}
	// Column alignment: all data rows have the separator width or more.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 6 {
		t.Fatalf("too few lines: %d", len(lines))
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("no separator line: %q", lines[2])
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.0:    "1",
		1.5:    "1.5",
		1.25:   "1.25",
		0.125:  "0.125",
		0.1256: "0.126",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{Title: "Growth", XLabel: "apps", YLabel: "options"}
	s := f.NewSeries("union")
	s.Add(1, 13)
	s.Add(2, 14)
	short := f.NewSeries("short")
	short.Add(1, 5)
	out := f.Render()
	for _, want := range []string{"Growth", "apps", "union (options)", "13", "14", "short (options)", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure render missing %q:\n%s", want, out)
		}
	}
	if f.String() != out {
		t.Error("String != Render")
	}
}

// Regression: series whose x values differ must land each y on its own
// x row, not pair y values by index against the longest series' x axis.
func TestFigureRenderMisalignedX(t *testing.T) {
	f := &Figure{Title: "Misaligned", XLabel: "x", YLabel: "y"}
	a := f.NewSeries("a")
	a.Add(1, 10)
	a.Add(3, 30)
	b := f.NewSeries("b")
	b.Add(2, 20)
	b.Add(3, 33)
	b.Add(4, 44)
	tbl := f.table()
	wantRows := [][]string{
		{"1", "10", "-"},
		{"2", "-", "20"},
		{"3", "30", "33"},
		{"4", "-", "44"},
	}
	if len(tbl.Rows) != len(wantRows) {
		t.Fatalf("rows = %d, want %d:\n%s", len(tbl.Rows), len(wantRows), f.Render())
	}
	for i, want := range wantRows {
		for j, cell := range want {
			if tbl.Rows[i][j] != cell {
				t.Fatalf("row %d col %d = %q, want %q:\n%s", i, j, tbl.Rows[i][j], cell, f.Render())
			}
		}
	}
}

func TestAddRowStringer(t *testing.T) {
	tbl := &Table{Columns: []string{"a"}}
	tbl.AddRow(stubStringer{})
	if tbl.Rows[0][0] != "stub" {
		t.Errorf("stringer cell = %q", tbl.Rows[0][0])
	}
}

type stubStringer struct{}

func (stubStringer) String() string { return "stub" }

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"name", "value"}}
	tbl.AddRow("plain", 1.5)
	tbl.AddRow("with,comma", `say "hi"`)
	got := tbl.CSV()
	want := "name,value\nplain,1.5\n\"with,comma\",\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []int64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want int64
	}{
		{5, 15},
		{30, 20},
		{40, 20},
		{50, 35},
		{99, 50},
		{100, 50},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Percentile[int64](nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %d, want 0", got)
	}
	if got := Percentile([]int64{7}, 99); got != 7 {
		t.Errorf("Percentile(single) = %d, want 7", got)
	}
	// The input must not be reordered.
	in := []int64{9, 1, 5}
	Percentile(in, 50)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Percentile mutated its input: %v", in)
	}
}

// TestPercentileEdges pins the documented edge rule: no interpolation,
// rank clamped to [1, n], so out-of-range p degrades to min/max instead
// of panicking, and degenerate inputs have defined answers.
func TestPercentileEdges(t *testing.T) {
	cases := []struct {
		name    string
		samples []int64
		p       float64
		want    int64
	}{
		{"empty", nil, 50, 0},
		{"empty p0", []int64{}, 0, 0},
		{"single p0", []int64{7}, 0, 7},
		{"single p50", []int64{7}, 50, 7},
		{"single p100", []int64{7}, 100, 7},
		{"p0 is the minimum", []int64{30, 10, 20}, 0, 10},
		{"negative p clamps to minimum", []int64{30, 10, 20}, -5, 10},
		{"p100 is the maximum", []int64{30, 10, 20}, 100, 30},
		{"p above 100 clamps to maximum", []int64{30, 10, 20}, 250, 30},
		{"tiny p still yields a sample", []int64{30, 10, 20}, 0.001, 10},
		{"no interpolation between samples", []int64{10, 20}, 50, 10},
		{"p just past a rank boundary", []int64{10, 20}, 50.1, 20},
		{"duplicates", []int64{5, 5, 5, 5}, 99, 5},
	}
	for _, c := range cases {
		if got := Percentile(c.samples, c.p); got != c.want {
			t.Errorf("%s: Percentile(%v, %v) = %d, want %d", c.name, c.samples, c.p, got, c.want)
		}
	}
}
