package vcsim

import (
	"testing"

	"vcdl/internal/opt"
)

// TestCalibrationProbe prints paper-scale dynamics. It is skipped in
// -short mode and exists to validate the shape calibration documented in
// DESIGN.md §3.
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe skipped in -short mode")
	}
	s, err := NewPaperSetup(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s.Config(5, 5, 2, opt.Constant{V: 0.95}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Curve.Points {
		t.Logf("epoch %2d  %5.2fh  acc=%.3f [%.3f,%.3f]", p.Epoch, p.Hours, p.Value, p.Lo, p.Hi)
	}
	t.Logf("total %.2fh issued=%d", res.Hours, res.Issued)

	serialVal, _, err := SerialBaseline(s, s.Config(5, 5, 2, opt.Constant{V: 0.95}), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range serialVal.Points {
		t.Logf("serial epoch %2d  %5.2fh  val=%.3f", p.Epoch, p.Hours, p.Value)
	}
}
