package main

import (
	"fmt"
	"io"
)

// repeatCheck runs the untraced pass of one workload n times with the
// same seed and prints, per end-to-end metric, the minimum, median and
// maximum and the quartile spread against the metric's bound — the
// check that two sets of runs of the same code can agree within the
// benchmark's own bounds. It reports whether every spread stayed within
// its bound and every output check held.
func repeatCheck(out io.Writer, w *workload, seed int64, n int) bool {
	samples := map[string][]float64{}
	ok := true
	for i := 0; i < n; i++ {
		r, err := measureWorkload(w, seed, false)
		if err != nil {
			fmt.Fprintf(out, "%s run %d: %v\n", w.Name, i+1, err)
			return false
		}
		ok = ok && r.Correct
		fmt.Fprintf(out, "%s run %d/%d:", w.Name, i+1, n)
		for _, m := range endToEndMetrics {
			v := r.EndToEnd[m.Name]
			samples[m.Name] = append(samples[m.Name], v.Value)
			fmt.Fprintf(out, " %s=%s", m.Name, v)
		}
		fmt.Fprintf(out, " correct=%v failed=%d/%d\n", r.Correct, r.Failed, r.Attempted)
	}
	fmt.Fprintf(out, "\n== %s: %d runs, seed %d\n   %-12s %12s %12s %12s %9s %7s\n", w.Name, n, seed, "metric", "min", "median", "max", "spread", "bound")
	for _, m := range endToEndMetrics {
		xs := sorted(samples[m.Name])
		spread := quartileSpread(xs)
		verdict := "within"
		if spread > m.Bound {
			verdict, ok = "OVER", false
		}
		fmt.Fprintf(out, "   %-12s %12.6g %12.6g %12.6g %8.2f%% %6.0f%% %s\n", m.Name, xs[0], median(xs), xs[len(xs)-1], 100*spread, 100*m.Bound, verdict)
	}
	return ok
}
