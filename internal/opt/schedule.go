package opt

// Schedule maps an epoch number (1-based) to a value: the VC-ASGD α
// hyperparameter (the paper's "Var" experiment sets αe = e/(e+1),
// explicitly analogous to learning-rate scheduling).
type Schedule interface {
	// At returns the scheduled value for epoch e (1-based).
	At(e int) float64
	// Name identifies the schedule in reports.
	Name() string
}

// Constant is a schedule that always returns V.
type Constant struct{ V float64 }

// At implements Schedule.
func (c Constant) At(int) float64 { return c.V }

// Name implements Schedule.
func (c Constant) Name() string { return "const" }

// EpochFraction is the paper's Var α schedule: αe = e/(e+1), rising from
// 0.5 at epoch 1 toward 1 as e grows (≈0.98 at e=40).
type EpochFraction struct{}

// At implements Schedule.
func (EpochFraction) At(e int) float64 {
	if e < 1 {
		e = 1
	}
	return float64(e) / float64(e+1)
}

// Name implements Schedule.
func (EpochFraction) Name() string { return "var" }
