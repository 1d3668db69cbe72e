// Package metrics provides the result containers and text rendering the
// benchmark harness uses to print paper-shaped tables and figure series.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = trimFloat(v)
		case fmt.Stringer:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// Percent formats a 0..1 ratio as a percentage cell.
func Percent(ratio float64) string { return trimFloat(ratio*100) + "%" }

// Percentile returns the p-th percentile of samples by the nearest-rank
// method, the convention latency SLOs use: the smallest observed sample
// whose rank covers p percent of the population. There is NO
// interpolation — the result is always one of the samples, never a value
// between two of them. Edge rule: rank = ceil(p/100 * n), clamped to
// [1, n], so p <= 0 yields the minimum, p = 100 (or anything above)
// yields the maximum, a single sample answers every p, and an empty
// input returns 0. It sorts a copy; the input is never reordered.
func Percentile[S ~int64](samples []S, p float64) S {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(p/100*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Render draws the table with aligned columns.
func (t *Table) Render() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "=== %s ===\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// String implements fmt.Stringer.
func (t *Table) String() string { return t.Render() }

// Series is one line of a figure: (x, y) points with a name.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series with axis labels, rendered as aligned columns
// (the harness prints data, not pictures).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	Notes  []string
}

// NewSeries registers and returns a new series.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render prints the figure as a table of x versus each series' y.
func (f *Figure) Render() string { return f.table().Render() }

// table lays the figure out as a Table (also the CSV shape).
func (f *Figure) table() *Table {
	t := &Table{Title: f.Title, Notes: f.Notes}
	t.Columns = append(t.Columns, f.XLabel)
	for _, s := range f.Series {
		t.Columns = append(t.Columns, s.Name+" ("+f.YLabel+")")
	}
	// The x-axis is the sorted union of every series' x values; each y
	// lands on its own x, and series without a sample there show "-".
	// (Pairing y values by index instead silently misaligns series whose
	// x values differ.)
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	byX := make([]map[float64]float64, len(f.Series))
	for i, s := range f.Series {
		byX[i] = make(map[float64]float64, len(s.X))
		for j, x := range s.X {
			if j < len(s.Y) {
				byX[i][x] = s.Y[j]
			}
		}
	}
	for _, x := range xs {
		cells := []interface{}{trimFloat(x)}
		for i := range f.Series {
			if y, ok := byX[i][x]; ok {
				cells = append(cells, y)
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// String implements fmt.Stringer.
func (f *Figure) String() string { return f.Render() }

// CSV renders the figure's table as comma-separated values.
func (f *Figure) CSV() string { return f.table().CSV() }

// CSV renders the table as comma-separated values for external plotting.
// Cells containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
