package nn

import (
	"math"
	"math/rand"
	"testing"

	"vcdl/internal/tensor"
)

func TestSoftmaxCrossEntropyUniformLoss(t *testing.T) {
	// Zero logits → uniform distribution → loss = ln(classes).
	logits := tensor.New(4, 10)
	var sce SoftmaxCrossEntropy
	loss, grad, _ := sce.LossAndGrad(logits, []int{0, 1, 2, 3})
	if math.Abs(loss-math.Log(10)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln 10 = %v", loss, math.Log(10))
	}
	// Gradient rows must sum to zero (softmax minus one-hot).
	for i := 0; i < 4; i++ {
		s := 0.0
		for j := 0; j < 10; j++ {
			s += grad.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, -1000, 0}, 1, 3)
	var sce SoftmaxCrossEntropy
	loss, grad, correct := sce.LossAndGrad(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	if !grad.AllFinite() {
		t.Fatal("grad not finite")
	}
	if correct != 1 {
		t.Fatalf("correct = %d, want 1", correct)
	}
}

func TestSoftmaxProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(5, 7)
	logits.RandNormal(0, 5, rng)
	var sce SoftmaxCrossEntropy
	p := sce.Probabilities(logits)
	for i := 0; i < 5; i++ {
		s := 0.0
		for j := 0; j < 7; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	var sce SoftmaxCrossEntropy
	sce.LossAndGrad(tensor.New(1, 3), []int{5})
}

func TestParametersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(SmallCNNBuilder(3, 8, 8, 10))
	net.Init(rng)
	flat := net.Parameters()
	if len(flat) != net.ParamCount() {
		t.Fatalf("flat length %d != ParamCount %d", len(flat), net.ParamCount())
	}
	net2 := NewNetwork(SmallCNNBuilder(3, 8, 8, 10))
	net2.Init(rand.New(rand.NewSource(999)))
	net2.SetParameters(flat)
	flat2 := net2.Parameters()
	for i := range flat {
		if flat[i] != flat2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestParametersIncludeBatchNormState(t *testing.T) {
	net := NewNetwork(func() []Layer {
		return []Layer{NewDense(4, 4), NewBatchNorm(4), NewDense(4, 2)}
	})
	net.Init(rand.New(rand.NewSource(1)))
	// Trainable: dense(4*4+4) + bn(4+4) + dense(4*2+2) = 20+8+10 = 38.
	if got := net.TrainableCount(); got != 38 {
		t.Fatalf("TrainableCount = %d, want 38", got)
	}
	// Blob adds running mean+var (8 more).
	if got := net.ParamCount(); got != 46 {
		t.Fatalf("ParamCount = %d, want 46", got)
	}
}

func TestResidualStateIncluded(t *testing.T) {
	net := NewNetwork(func() []Layer {
		return []Layer{NewConv2D(1, 2, 3, 1, 1), preActBlock(2), NewGlobalAvgPool2D(), NewDense(2, 2)}
	})
	net.Init(rand.New(rand.NewSource(1)))
	// The residual body holds two BatchNorms whose running stats (2 feats
	// each → 4 values per BN, 8 total) must be part of the blob.
	if net.ParamCount() != net.TrainableCount()+8 {
		t.Fatalf("ParamCount %d, TrainableCount %d: residual BN state missing",
			net.ParamCount(), net.TrainableCount())
	}
}

func TestSetParametersWrongLengthPanics(t *testing.T) {
	net := NewNetwork(MLPBuilder(3, nil, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("SetParameters with wrong length did not panic")
		}
	}()
	net.SetParameters(make([]float64, 5))
}

// TestWithParametersLendsAndRestores: evaluating a vector through
// WithParameters gives the loss and accuracy bits SetParameters gives,
// on a network with batch-norm state in the blob; the vector is not
// written; and afterwards the network holds its own parameters again,
// with no tensor pointing into the lent vector.
func TestWithParametersLendsAndRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	build := MiniResNetV2Builder(3, 8, 8, 4, 1, 5)
	net := NewNetwork(build)
	net.Init(rng)
	x, labels := randomBatch(rng, []int{12, 3, 8, 8}, 5)
	net.TrainBatch(x, labels) // running statistics away from their init
	own := net.Parameters()

	other := NewNetwork(build)
	other.Init(rand.New(rand.NewSource(22)))
	other.TrainBatch(x, labels)
	flat := other.Parameters()
	before := append([]float64(nil), flat...)

	var loss, acc float64
	net.WithParameters(flat, func() { loss, acc = net.Evaluate(x, labels, 5) })
	wantLoss, wantAcc := other.Evaluate(x, labels, 5)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) || acc != wantAcc {
		t.Fatalf("lent evaluation (%v, %v), copied (%v, %v)", loss, acc, wantLoss, wantAcc)
	}
	for i := range flat {
		if math.Float64bits(flat[i]) != math.Float64bits(before[i]) {
			t.Fatalf("WithParameters wrote the lent vector at %d", i)
		}
	}
	for i := range flat {
		flat[i] = math.NaN()
	}
	for i, v := range net.Parameters() {
		if math.Float64bits(v) != math.Float64bits(own[i]) {
			t.Fatalf("parameter %d is %v after WithParameters, own value %v", i, v, own[i])
		}
	}
}

func TestWithParametersWrongLengthPanics(t *testing.T) {
	net := NewNetwork(MLPBuilder(3, nil, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("WithParameters with wrong length did not panic")
		}
	}()
	net.WithParameters(make([]float64, 5), func() { t.Fatal("f ran on a vector of the wrong length") })
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(MLPBuilder(4, []int{5}, 3))
	net.Init(rng)
	clone := net.Clone()
	p1 := net.Parameters()
	p2 := clone.Parameters()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("clone parameters differ")
		}
	}
	// Training the clone must not affect the original.
	x, labels := randomBatch(rng, []int{4, 4}, 3)
	clone.ZeroGrads()
	clone.TrainBatch(x, labels)
	for i, g := range clone.GradTensors() {
		if g.Norm2() > 0 {
			// apply a crude update to the clone only
			clone.ParamTensors()[i].Axpy(-0.1, g)
		}
	}
	p1b := net.Parameters()
	for i := range p1 {
		if p1[i] != p1b[i] {
			t.Fatal("training the clone mutated the original")
		}
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(MLPBuilder(4, []int{4}, 2))
	net.Init(rng)
	x, labels := randomBatch(rng, []int{3, 4}, 2)
	net.TrainBatch(x, labels)
	nonzero := false
	for _, g := range net.GradTensors() {
		if g.Norm2() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("gradients all zero after TrainBatch")
	}
	net.ZeroGrads()
	for _, g := range net.GradTensors() {
		if g.Norm2() != 0 {
			t.Fatal("ZeroGrads left nonzero gradient")
		}
	}
}

func TestGradAccumulationAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(MLPBuilder(3, nil, 2))
	net.Init(rng)
	x, labels := randomBatch(rng, []int{2, 3}, 2)
	net.ZeroGrads()
	net.TrainBatch(x, labels)
	g1 := net.Gradients()
	net.TrainBatch(x, labels)
	g2 := net.Gradients()
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("gradients did not accumulate at %d: %v vs 2*%v", i, g2[i], g1[i])
		}
	}
}

func TestEvaluateMatchesEvalBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork(MLPBuilder(4, []int{6}, 3))
	net.Init(rng)
	x, labels := randomBatch(rng, []int{10, 4}, 3)
	lossWhole, accWhole := net.Evaluate(x, labels, 0)
	lossBatched, accBatched := net.Evaluate(x, labels, 3)
	if math.Abs(lossWhole-lossBatched) > 1e-9 || math.Abs(accWhole-accBatched) > 1e-9 {
		t.Fatalf("batched evaluate differs: (%v,%v) vs (%v,%v)", lossWhole, accWhole, lossBatched, accBatched)
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bn := NewBatchNorm(3)
	bn.Init(rng)
	x := tensor.New(64, 3)
	x.RandNormal(5, 2, rng)
	out := bn.Forward(x, true)
	for f := 0; f < 3; f++ {
		mean, meanSq := 0.0, 0.0
		for i := 0; i < 64; i++ {
			v := out.At(i, f)
			mean += v
			meanSq += v * v
		}
		mean /= 64
		variance := meanSq/64 - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("feature %d mean %v, want 0", f, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("feature %d variance %v, want 1", f, variance)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	bn := NewBatchNorm(2)
	bn.Init(rng)
	x := tensor.New(32, 2)
	x.RandNormal(3, 1, rng)
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	// Inference on the same distribution should now be ≈ normalized.
	out := bn.Forward(x, false)
	mean := 0.0
	for i := 0; i < 32; i++ {
		mean += out.At(i, 0)
	}
	mean /= 32
	if math.Abs(mean) > 0.1 {
		t.Fatalf("inference mean %v, want ~0", mean)
	}
}

func TestMiniResNetForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewNetwork(MiniResNetV2Builder(3, 8, 8, 8, 2, 10))
	net.Init(rng)
	x := tensor.New(2, 3, 8, 8)
	x.RandNormal(0, 1, rng)
	logits := net.Forward(x, true)
	if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
		t.Fatalf("logits shape %v, want [2 10]", logits.Shape())
	}
	if !logits.AllFinite() {
		t.Fatal("logits not finite")
	}
}

// TestTrainingReducesLoss is the end-to-end sanity check: a few SGD steps
// on a fixed batch must reduce the loss.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	net := NewNetwork(SmallCNNBuilder(3, 8, 8, 4))
	net.Init(rng)
	x, labels := randomBatch(rng, []int{16, 3, 8, 8}, 4)
	first := lossOf(net, x, labels)
	for step := 0; step < 30; step++ {
		net.ZeroGrads()
		net.TrainBatch(x, labels)
		params, grads := net.ParamTensors(), net.GradTensors()
		for i := range params {
			params[i].Axpy(-0.05, grads[i])
		}
	}
	last := lossOf(net, x, labels)
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if last > first*0.8 {
		t.Fatalf("loss barely moved: %v -> %v", first, last)
	}
}
