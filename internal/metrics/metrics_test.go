package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStdMinMax(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Std(xs) != 2 {
		t.Fatalf("Std = %v", Std(xs))
	}
	lo, hi := MinMax(xs)
	if lo != 2 || hi != 9 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestEmptyStats(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty stats should be 0")
	}
	lo, hi := MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Name = "P3C3T4"
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has no last point")
	}
	if s.FinalValue() != 0 {
		t.Fatal("empty FinalValue should be 0")
	}
	s.Add(Point{Epoch: 1, Hours: 0.5, Value: 0.2})
	s.Add(Point{Epoch: 2, Hours: 1.0, Value: 0.5})
	p, ok := s.Last()
	if !ok || p.Epoch != 2 {
		t.Fatalf("Last = %+v", p)
	}
	if s.FinalValue() != 0.5 {
		t.Fatalf("FinalValue = %v", s.FinalValue())
	}
}

func TestTimeToReach(t *testing.T) {
	s := Series{Points: []Point{
		{Hours: 1, Value: 0.3},
		{Hours: 2, Value: 0.6},
		{Hours: 3, Value: 0.7},
	}}
	h, ok := s.TimeToReach(0.6)
	if !ok || h != 2 {
		t.Fatalf("TimeToReach = %v,%v", h, ok)
	}
	if _, ok := s.TimeToReach(0.9); ok {
		t.Fatal("unreachable value reported reached")
	}
}

func TestCSV(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{Epoch: 1, Hours: 1.5, Value: 0.25, Lo: 0.2, Hi: 0.3}}}
	got := s.CSV()
	if !strings.Contains(got, "# x\n") || !strings.Contains(got, "1,1.5000,0.2500,0.2000,0.3000") {
		t.Fatalf("CSV = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	got := Table([]string{"name", "v"}, [][]string{{"aa", "1"}, {"b", "22"}})
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d: %q", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator = %q", lines[1])
	}
	// All rows equal width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned: %q vs %q", lines[2], lines[3])
	}
}

func TestStdSingleValue(t *testing.T) {
	if Std([]float64{5}) != 0 {
		t.Fatal("Std of single value should be 0")
	}
}

func TestStdNonNegativeAndScale(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	s1 := Std(xs)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 * x
	}
	s2 := Std(ys)
	if math.Abs(s2-10*s1) > 1e-12 {
		t.Fatalf("Std not scale-equivariant: %v vs %v", s2, 10*s1)
	}
}
