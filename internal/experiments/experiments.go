// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 8), and measures its use cases, on the
// emulated substrate:
//
//	Table 1  — data-plane resource usage of the three variants
//	Figure 9 — synchronization CDFs: snapshots vs. counter polling
//	Figure 10 — max sustained snapshot rate vs. ports per router
//	Figure 11 — synchronization vs. network size (Monte Carlo over
//	            distributions collected from the emulated testbed,
//	            mirroring the paper's own methodology)
//	Figure 12 — load-balance standard deviation CDFs for Hadoop,
//	            GraphX and memcache under ECMP and flowlet switching,
//	            measured with snapshots and with polling (the Section
//	            8.3 use case)
//	Figure 13 — pairwise Spearman correlation of egress ports under
//	            GraphX, snapshots vs. polling (the Section 8.4 use case)
//	UseCases  — the remaining use cases: loop detection (Section 10:
//	            snapshots never show an impossible FIB-version pair,
//	            polling does), microbursts (Section 2.1: a high-water
//	            register catches what a gauge misses) and provisioning
//	            (Section 2.2: equal averages, different concurrency)
//
// Each experiment is a plain function returning a printable result;
// cmd/experiments prints them and this package's tests assert their
// shapes. Absolute numbers depend on the calibrated delay
// distributions, but the shapes the paper reports are reproduced: the microsecond-vs-millisecond gap
// between snapshots and polling, the channel-state variant's longer
// tail, snapshot rate falling inversely with port count, sub-RTT
// synchronization even for 10,000 routers, flowlet switching's better
// balance (and polling's inability to bound its own error),
// snapshots finding strictly more significant correlations, and each
// use case's contrast.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Options is what every harness takes. Seed drives all randomness;
// Shards selects the simulation engine (0/1 serial, >=2 parallel), and
// results are byte-identical either way. Each harness runs at one of two
// scales fixed in its own body: the paper's full sample counts, or with
// Quick exactly the scale this package's shape tests assert.
type Options struct {
	Seed   int64
	Shards int
	Quick  bool
}

// scale returns full, or quick under o.Quick.
func scale[T any](o Options, full, quick T) T {
	if o.Quick {
		return quick
	}
	return full
}

// Table is a printable table of results.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV writes the table as CSV: the header row, then the rows.
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...))
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Point is one (x, y) coordinate of a plotted series.
type Point struct {
	X, Y float64
}

// Series is one plotted line.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a printable figure: one or more series plus summary notes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Fprint renders the figure as aligned data series.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	fmt.Fprintf(w, "x: %s, y: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- series %q (%d points)\n", s.Name, len(s.Points))
		for _, p := range s.Points {
			fmt.Fprintf(w, "%12.4g  %12.4g\n", p.X, p.Y)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV writes the figure's series as long-form CSV (series, x, y).
func (f *Figure) WriteCSV(w io.Writer) error {
	rows := [][]string{{"series", f.XLabel, f.YLabel}}
	for _, s := range f.Series {
		for _, p := range s.Points {
			rows = append(rows, []string{s.Name, fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y)})
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}
