package harness

import (
	"fmt"
	"io"
	"strings"
)

// PlotSeries renders series as an ASCII chart (time on the x-axis, value
// on the y-axis), the textual analogue of the paper's figures. Each
// series gets its own marker; axes are scaled to the data.
func PlotSeries(w io.Writer, title string, series []Series, width, height int) {
	fmt.Fprintf(w, "%s\n", title)
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 16
	}
	var maxX, maxY int64
	for _, s := range series {
		for _, p := range s.Points {
			if p[0] > maxX {
				maxX = p[0]
			}
			if p[1] > maxY {
				maxY = p[1]
			}
		}
	}
	if maxX == 0 {
		maxX = 1
	}
	if maxY == 0 {
		maxY = 1
	}
	markers := []byte("*o+x#@%&")
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			x := int(p[0] * int64(width-1) / maxX)
			y := int(p[1] * int64(height-1) / maxY)
			row := height - 1 - y
			if row >= 0 && row < height && x >= 0 && x < width {
				grid[row][x] = m
			}
		}
	}
	for i, row := range grid {
		label := "      "
		if i == 0 {
			label = fmt.Sprintf("%6d", maxY)
		} else if i == height-1 {
			label = fmt.Sprintf("%6d", 0)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(w, "       +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "        0%s%d\n", strings.Repeat(" ", width-1-len(fmt.Sprint(maxX))), maxX)
	for si, s := range series {
		fmt.Fprintf(w, "  %c = %s\n", markers[si%len(markers)], s.Label)
	}
}
