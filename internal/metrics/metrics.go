// Package metrics provides the reporting substrate every harness shares:
// time-series recording and summary statistics for the paper's figures
// — accuracy-vs-time curves with per-epoch spread (Figures 2, 4, 5, 6)
// — text tables, and the engine-independent run summary (RunStats) both
// scenario engines report into, rendered by FidelityCSV as the sim↔real
// fidelity report (DESIGN.md §9).
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Point is one epoch marker on a training curve.
type Point struct {
	Epoch int
	// Hours is cumulative virtual training time, the x-axis of the
	// paper's figures.
	Hours float64
	// Value is the curve value (e.g. average validation accuracy).
	Value float64
	// Lo and Hi bound the per-epoch spread across subtasks — the paper's
	// error bars in Figure 4.
	Lo, Hi float64
}

// Series is one labelled curve.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(p Point) { s.Points = append(s.Points, p) }

// Last returns the final point; ok is false for an empty series.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// FinalValue returns the last point's value or 0.
func (s *Series) FinalValue() float64 {
	p, ok := s.Last()
	if !ok {
		return 0
	}
	return p.Value
}

// TimeToReach returns the earliest Hours at which the series reaches v,
// with ok=false if it never does.
func (s *Series) TimeToReach(v float64) (float64, bool) {
	for _, p := range s.Points {
		if p.Value >= v {
			return p.Hours, true
		}
	}
	return 0, false
}

// CSV renders the series as "epoch,hours,value,lo,hi" lines with a header.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\nepoch,hours,value,lo,hi\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d,%.4f,%.4f,%.4f,%.4f\n", p.Epoch, p.Hours, p.Value, p.Lo, p.Hi)
	}
	return b.String()
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(xs)))
}

// MinMax returns the extremes of xs (0,0 for empty input).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Table renders an aligned text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
