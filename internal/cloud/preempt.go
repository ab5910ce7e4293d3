package cloud

import "math/rand"

// Preemption modelling (§IV-E of the paper).
//
// The paper models compute-instance usage as independent Bernoulli trials:
// each subtask execution is terminated with probability p, in which case
// the subtask is rescheduled after its timeout, stretching its effective
// execution time from te to te+to. With ns total subtasks spread over nc
// clients running ntc simultaneous subtasks each, the number of subtasks
// that can serially accrue a timeout per execution slot is
// n = ns/(nc·ntc), giving expected training time n·te + n·p·to.

// PreemptModel carries the parameters of the binomial analysis.
type PreemptModel struct {
	// P is the per-subtask termination probability.
	P float64
	// TaskExecSeconds is te, the average subtask execution time.
	TaskExecSeconds float64
	// TimeoutSeconds is to, the scheduler's reissue timeout.
	TimeoutSeconds float64
}

// SlotSubtasks returns n = ns/(nc·ntc), the serial subtask chain length
// per execution slot.
func SlotSubtasks(ns, nc, ntc int) float64 {
	if nc < 1 || ntc < 1 {
		return float64(ns)
	}
	return float64(ns) / float64(nc*ntc)
}

// ExpectedTrainingSeconds returns n·te + n·p·to for a job of ns subtasks
// over nc clients with ntc simultaneous subtasks each.
func (m PreemptModel) ExpectedTrainingSeconds(ns, nc, ntc int) float64 {
	n := SlotSubtasks(ns, nc, ntc)
	return n*m.TaskExecSeconds + n*m.P*m.TimeoutSeconds
}

// ExpectedIncreaseSeconds returns the n·p·to term alone — the expected
// training-time increase attributable to preemptions. For the paper's
// P5C5T2 example (ns=2000, nc=5, ntc=2, te≤2.4 min, to=5 min) this is
// 50 min at p=0.05 and 200 min at p=0.20.
func (m PreemptModel) ExpectedIncreaseSeconds(ns, nc, ntc int) float64 {
	return SlotSubtasks(ns, nc, ntc) * m.P * m.TimeoutSeconds
}

// SampleIncreaseSeconds draws one realization of the total timeout delay by
// simulating the n Bernoulli trials of a single execution slot.
func (m PreemptModel) SampleIncreaseSeconds(ns, nc, ntc int, rng *rand.Rand) float64 {
	n := int(SlotSubtasks(ns, nc, ntc) + 0.5)
	inc := 0.0
	for i := 0; i < n; i++ {
		if rng.Float64() < m.P {
			inc += m.TimeoutSeconds
		}
	}
	return inc
}
