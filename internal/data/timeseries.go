package data

import (
	"fmt"
	"math"
	"math/rand"
)

// Time-series forecasting workload (§V of the paper): the authors plan to
// evaluate problems like time-series forecasting, noting that the training
// data is small and the problem is "less amenable to data parallel
// training ... and hence requires more vertical scaling". This generator
// produces such a workload: windows of a noisy multi-seasonal signal,
// labelled with the quantile bucket of the next step, so forecasting
// becomes classification and plugs into the same training pipeline.

// TimeSeriesConfig controls the forecasting workload generator.
type TimeSeriesConfig struct {
	// Window is the input length (model input dimension).
	Window int
	// Buckets is the number of quantile classes to predict.
	Buckets int
	// NTrain, NVal, NTest are the split sizes.
	NTrain, NVal, NTest int
	// Periods are the seasonal component periods of the signal.
	Periods []int
	// NoiseStd is the observation noise.
	NoiseStd float64
	Seed     int64
}

// DefaultTimeSeriesConfig returns a small forecasting task: 24-step
// windows of a signal with daily/weekly style seasonality, 5 buckets.
func DefaultTimeSeriesConfig() TimeSeriesConfig {
	return TimeSeriesConfig{
		Window:   24,
		Buckets:  5,
		NTrain:   2000,
		NVal:     400,
		NTest:    400,
		Periods:  []int{24, 168},
		NoiseStd: 0.3,
		Seed:     1,
	}
}

// Validate reports configuration errors.
func (c TimeSeriesConfig) Validate() error {
	switch {
	case c.Window < 2:
		return fmt.Errorf("data: window %d < 2", c.Window)
	case c.Buckets < 2:
		return fmt.Errorf("data: buckets %d < 2", c.Buckets)
	case c.NTrain < c.Buckets:
		return fmt.Errorf("data: NTrain %d < buckets %d", c.NTrain, c.Buckets)
	case len(c.Periods) == 0:
		return fmt.Errorf("data: no seasonal periods")
	case c.NoiseStd < 0:
		return fmt.Errorf("data: negative NoiseStd")
	}
	return nil
}

// GenerateTimeSeries builds a forecasting Corpus: inputs are [N, Window]
// windows (rank-2, suited to MLP models), labels are the quantile bucket
// of the step following each window. The quantile boundaries are fitted on
// the training portion only.
func GenerateTimeSeries(cfg TimeSeriesConfig) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.NTrain + cfg.NVal + cfg.NTest
	series := synthSignal(cfg, total+cfg.Window+1, rng)

	// Bucket boundaries from the training next-step values.
	trainNext := make([]float64, cfg.NTrain)
	for i := range trainNext {
		trainNext[i] = series[i+cfg.Window]
	}
	bounds := quantileBounds(trainNext, cfg.Buckets)

	makeSplit := func(start, n int) *Dataset {
		ds := &Dataset{Labels: make([]int, n)}
		flat := make([]float64, n*cfg.Window)
		for i := 0; i < n; i++ {
			copy(flat[i*cfg.Window:], series[start+i:start+i+cfg.Window])
			ds.Labels[i] = bucketOf(series[start+i+cfg.Window], bounds)
		}
		ds.X = newMatrix(flat, n, cfg.Window)
		return ds
	}
	c := &Corpus{}
	c.Train = makeSplit(0, cfg.NTrain)
	c.Val = makeSplit(cfg.NTrain, cfg.NVal)
	c.Test = makeSplit(cfg.NTrain+cfg.NVal, cfg.NTest)
	c.Train.Shuffle(rng)
	return c, nil
}

// synthSignal produces a sum of seasonal sinusoids with a slow trend and
// AR(1)-correlated noise, a standard synthetic forecasting benchmark
// shape.
func synthSignal(cfg TimeSeriesConfig, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	phases := make([]float64, len(cfg.Periods))
	amps := make([]float64, len(cfg.Periods))
	// float64(...) rounds every product that feeds an add, as in
	// sampleSet, so no compiler fuses one (DESIGN §13).
	for i := range cfg.Periods {
		phases[i] = float64(rng.Float64()) * 2 * math.Pi
		amps[i] = 0.5 + float64(rng.Float64())
	}
	ar := 0.0
	for t := 0; t < n; t++ {
		v := 0.0
		for i, p := range cfg.Periods {
			v += float64(amps[i] * math.Sin(2*math.Pi*float64(t)/float64(p)+phases[i]))
		}
		v += float64(0.0005 * float64(t)) // slow trend
		ar = float64(0.7*ar) + float64(rng.NormFloat64()*cfg.NoiseStd)
		out[t] = v + ar
	}
	return out
}

// quantileBounds returns k−1 boundaries splitting xs into k near-equal
// buckets.
func quantileBounds(xs []float64, k int) []float64 {
	sorted := append([]float64(nil), xs...)
	sortFloat64s(sorted)
	bounds := make([]float64, k-1)
	for i := 1; i < k; i++ {
		bounds[i-1] = sorted[i*len(sorted)/k]
	}
	return bounds
}

func bucketOf(v float64, bounds []float64) int {
	for i, b := range bounds {
		if v < b {
			return i
		}
	}
	return len(bounds)
}

// sortFloat64s is insertion-free: simple heap-less quicksort via the
// standard library.
func sortFloat64s(xs []float64) {
	// small wrapper so timeseries.go controls its sort import surface
	sortSlice(xs)
}
