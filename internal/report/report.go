// Package report holds the accuracy/timing records the experiment
// drivers produce and the plain-text renderers that print them in the
// shape of the paper's tables and figures (one series per line, one row
// per epoch or per configuration).
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one recorded measurement of a training run.
type Point struct {
	Epoch    int     // collective epochs completed (all learners together)
	Train    float64 // training accuracy in [0,1]
	Test     float64 // test accuracy in [0,1]
	Loss     float64 // most recent training minibatch loss at record time
	SimTime  float64 // simulated seconds elapsed (0 when not simulated)
	WallSecs float64 // wall-clock seconds elapsed
}

// Curve is a training trajectory.
type Curve []Point

// Final returns the last point (zero Point for an empty curve).
func (c Curve) Final() Point {
	if len(c) == 0 {
		return Point{}
	}
	return c[len(c)-1]
}

// AUC returns the mean test accuracy across points, a crude
// area-under-curve summary used by shape assertions in tests.
func (c Curve) AUC() float64 {
	if len(c) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range c {
		s += p.Test
	}
	return s / float64(len(c))
}

// Series is a labelled curve for figure-style output.
type Series struct {
	Label string
	Curve Curve
}

// Table is a simple column-aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// FormatFigure renders labelled accuracy-vs-epoch series the way the
// paper's figures tabulate them: one column per series, one row per
// recorded epoch, using test accuracy in percent.
func FormatFigure(title string, series []Series) string {
	return formatFigure(title, series, func(p Point) float64 { return p.Test })
}

// FormatTrainFigure renders training-accuracy series.
func FormatTrainFigure(title string, series []Series) string {
	return formatFigure(title, series, func(p Point) float64 { return p.Train })
}

func formatFigure(title string, series []Series, pick func(Point) float64) string {
	// Collect the union of epochs.
	epochSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Curve {
			epochSet[p.Epoch] = true
		}
	}
	epochs := make([]int, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)

	t := Table{Title: title, Header: []string{"epoch"}}
	for _, s := range series {
		t.Header = append(t.Header, s.Label)
	}
	for _, e := range epochs {
		row := []string{fmt.Sprintf("%d", e)}
		for _, s := range series {
			v := math.NaN()
			for _, p := range s.Curve {
				if p.Epoch == e {
					v = pick(p)
					break
				}
			}
			if math.IsNaN(v) {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f%%", 100*v))
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Pct formats a [0,1] fraction as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Secs formats seconds with millisecond resolution.
func Secs(v float64) string { return fmt.Sprintf("%.3fs", v) }

// SamplesToTarget returns the number of training samples that had been
// processed when the curve first reached the target test accuracy, and
// whether it ever did. samplesPerEpoch is the collective per-epoch
// sample count. This is the paper's sample-complexity measure: "the
// number of data samples required to reach certain training quality".
func SamplesToTarget(c Curve, target float64, samplesPerEpoch int) (int64, bool) {
	for _, p := range c {
		if p.Test >= target {
			return int64(p.Epoch) * int64(samplesPerEpoch), true
		}
	}
	return 0, false
}
