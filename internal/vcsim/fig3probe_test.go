package vcsim

import (
	"testing"

	"vcdl/internal/opt"
)

// TestFig3ShapeProbe checks the Figure 3 orderings at reduced epochs
// (training time scales linearly in epochs, so shapes are preserved).
// Skipped in -short mode.
func TestFig3ShapeProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 probe skipped in -short mode")
	}
	s, err := NewPaperSetup(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	alpha := opt.Constant{V: 0.95}
	hours := map[string]float64{}
	for _, g := range []struct {
		label  string
		pn, cn int
	}{{"P1C3", 1, 3}, {"P3C3", 3, 3}, {"P5C5", 5, 5}} {
		for _, tn := range []int{2, 4, 8} {
			res, err := Run(s.Config(g.pn, g.cn, tn, alpha))
			if err != nil {
				t.Fatal(err)
			}
			key := g.label
			switch tn {
			case 2:
				key += "T2"
			case 4:
				key += "T4"
			case 8:
				key += "T8"
			}
			hours[key] = res.Hours
			t.Logf("%sT%d: %.3fh (40-epoch equivalent %.1fh)", g.label, tn, res.Hours, res.Hours*40/4)
		}
	}
	if !(hours["P1C3T4"] < hours["P1C3T2"]) {
		t.Errorf("want P1C3T4 < P1C3T2: %v vs %v", hours["P1C3T4"], hours["P1C3T2"])
	}
	if !(hours["P1C3T8"] > hours["P1C3T4"]) {
		t.Errorf("want P1C3T8 > P1C3T4: %v vs %v", hours["P1C3T8"], hours["P1C3T4"])
	}
	if !(hours["P3C3T8"] < hours["P1C3T8"]) {
		t.Errorf("want P3C3T8 < P1C3T8: %v vs %v", hours["P3C3T8"], hours["P1C3T8"])
	}
	// P5C5: the paper reports a mild rise T2→T4→T8; our model reproduces
	// the T4→T8 rise exactly and keeps T4 within 10% of T2 (documented
	// divergence, DESIGN.md §3).
	if !(hours["P5C5T8"] > hours["P5C5T4"]) {
		t.Errorf("want P5C5T8 > P5C5T4: %v vs %v", hours["P5C5T8"], hours["P5C5T4"])
	}
	if d := (hours["P5C5T2"] - hours["P5C5T4"]) / hours["P5C5T2"]; d > 0.10 {
		t.Errorf("P5C5T4 deviates from T2 by %.0f%%, want <= 10%%", d*100)
	}
	// P5C5T2 must beat every C3 configuration (the paper's overall
	// fastest family).
	for _, k := range []string{"P1C3T2", "P1C3T4", "P1C3T8", "P3C3T2", "P3C3T4", "P3C3T8"} {
		if hours["P5C5T2"] >= hours[k] {
			t.Errorf("P5C5T2 (%.2fh) not faster than %s (%.2fh)", hours["P5C5T2"], k, hours[k])
		}
	}
}
