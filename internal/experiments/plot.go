package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// FprintPlot renders a figure as an ASCII chart: one glyph per series,
// points mapped onto a fixed-size grid, with a log-scaled x-axis when
// the data spans more than two decades (synchronization CDFs do). It
// complements the numeric series output for terminal-only inspection.
func (f *Figure) FprintPlot(w io.Writer, width, height int) {
	if width < 20 {
		width = 64
	}
	if height < 5 {
		height = 16
	}
	var xs, ys []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs = append(xs, p.X)
			ys = append(ys, p.Y)
		}
	}
	if len(xs) == 0 {
		fmt.Fprintf(w, "== %s == (no data)\n", f.Title)
		return
	}
	xmin, xmax := slices.Min(xs), slices.Max(xs)
	ymin, ymax := slices.Min(ys), slices.Max(ys)
	logX := xmin > 0 && xmax/xmin > 100
	tx := func(x float64) float64 {
		if logX {
			return math.Log10(x)
		}
		return x
	}
	xlo, xhi := tx(xmin), tx(xmax)
	if xhi == xlo {
		xhi = xlo + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	glyphs := "*+xo#@%&"
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			c := int((tx(p.X) - xlo) / (xhi - xlo) * float64(width-1))
			r := height - 1 - int((p.Y-ymin)/(ymax-ymin)*float64(height-1))
			if c >= 0 && c < width && r >= 0 && r < height {
				grid[r][c] = g
			}
		}
	}

	fmt.Fprintf(w, "== %s ==\n", f.Title)
	for r, row := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%8.3g", ymax)
		} else if r == height-1 {
			label = fmt.Sprintf("%8.3g", ymin)
		}
		fmt.Fprintf(w, "%s |%s\n", label, strings.TrimRight(string(row), " "))
	}
	axis := "linear"
	if logX {
		axis = "log10"
	}
	fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%8s  %-.3g%s%.3g  (%s, x: %s; y: %s)\n",
		"", xmin, strings.Repeat(" ", max(1, width-16)), xmax, axis, f.XLabel, f.YLabel)
	for si, s := range f.Series {
		fmt.Fprintf(w, "    %c = %s\n", glyphs[si%len(glyphs)], s.Name)
	}
}
