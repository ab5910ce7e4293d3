package ps_test

import (
	"fmt"

	"vcdl/internal/opt"
	"vcdl/internal/ps"
	"vcdl/internal/store"
)

// ExampleServer_Assimilate shows the VC-ASGD update (Equation 1 of the
// paper): the server copy moves a (1−α) fraction toward each arriving
// client copy, in arrival order, never waiting for stragglers.
func ExampleServer_Assimilate() {
	srv := ps.NewServer(0, store.NewStrong(), opt.Constant{V: 0.9})
	srv.Publish([]float64{0})

	for _, clientCopy := range []float64{10, 10, 10} {
		srv.Assimilate([]float64{clientCopy}, 1)
		ws, _ := srv.Current()
		fmt.Printf("Ws = %.2f\n", ws[0])
	}
	// Output:
	// Ws = 1.00
	// Ws = 1.90
	// Ws = 2.71
}

// ExampleGroup shows multiple parameter servers sharing one store — the
// paper's horizontal PS scaling (§III-D). Updates round-robin across
// servers but land on the same central copy.
func ExampleGroup() {
	g := ps.NewGroup(3, store.NewStrong(), opt.Constant{V: 0.5})
	g.Publish([]float64{0})
	for i := 0; i < 3; i++ {
		g.Pick().Assimilate([]float64{8}, 1)
	}
	ws, _ := g.Current()
	fmt.Printf("Ws = %.0f after 3 assimilations via 3 servers\n", ws[0])
	// Output:
	// Ws = 7 after 3 assimilations via 3 servers
}

// ExampleEpochTracker shows the per-epoch aggregation the paper's
// parameter server performs: the epoch closes when all subtasks have
// reported, yielding the mean and the error-bar range of Figure 4.
func ExampleEpochTracker() {
	tr := ps.NewEpochTrackerAt(3, 1)
	tr.Record(0.50)
	tr.Record(0.70)
	sum, done := tr.Record(0.60)
	fmt.Printf("done=%v mean=%.2f range=[%.2f,%.2f]\n", done, sum.Mean, sum.Lo, sum.Hi)
	// Output:
	// done=true mean=0.60 range=[0.50,0.70]
}
