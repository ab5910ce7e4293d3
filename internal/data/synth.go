package data

import (
	"fmt"
	"math/rand"

	"vcdl/internal/tensor"
)

// SynthConfig controls the synthetic image-classification generator.
//
// Each class has a smooth random prototype image; a sample is
// amp·prototype + spatial jitter + pixel noise. NoiseStd sets the Bayes
// difficulty: ~0.8 yields a task where a small CNN plateaus near the
// paper's 0.73–0.82 accuracy band, 0 makes the task trivially separable.
type SynthConfig struct {
	Classes     int
	C, H, W     int
	NTrain      int
	NVal        int
	NTest       int
	NoiseStd    float64
	AmpJitter   float64 // amplitude multiplier drawn from [1-AmpJitter, 1+AmpJitter]
	ShiftPixels int     // max circular shift in each spatial dimension
	// LabelNoise is the probability that a sample's label is replaced by a
	// uniformly random class. It caps achievable accuracy at roughly
	// 1 − LabelNoise·(Classes−1)/Classes, giving the task a controllable
	// Bayes ceiling like CIFAR-10's (where the paper's curves plateau
	// around 0.73–0.82).
	LabelNoise float64
	Seed       int64
}

// DefaultSynthConfig mirrors the CIFAR-10 topology at laptop scale:
// 10 classes, small RGB images, a train split that divides evenly into 50
// shards, plus validation and test splits.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Classes:     10,
		C:           3,
		H:           8,
		W:           8,
		NTrain:      5000,
		NVal:        1000,
		NTest:       1000,
		NoiseStd:    0.8,
		AmpJitter:   0.3,
		ShiftPixels: 1,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c SynthConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("data: need >= 2 classes, got %d", c.Classes)
	case c.C < 1 || c.H < 1 || c.W < 1:
		return fmt.Errorf("data: bad image dims %dx%dx%d", c.C, c.H, c.W)
	case c.NTrain < c.Classes:
		return fmt.Errorf("data: NTrain %d < classes %d", c.NTrain, c.Classes)
	case c.NoiseStd < 0:
		return fmt.Errorf("data: negative NoiseStd")
	case c.LabelNoise < 0 || c.LabelNoise >= 1:
		return fmt.Errorf("data: LabelNoise %v outside [0,1)", c.LabelNoise)
	}
	return nil
}

// GenerateSynth builds a Corpus from cfg. Generation is fully determined by
// cfg.Seed.
func GenerateSynth(cfg SynthConfig) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := makePrototypes(cfg, rng)
	c := &Corpus{Config: cfg}
	c.Train = sampleSet(cfg, protos, cfg.NTrain, rng)
	c.Val = sampleSet(cfg, protos, cfg.NVal, rng)
	c.Test = sampleSet(cfg, protos, cfg.NTest, rng)
	return c, nil
}

// makePrototypes creates one smooth random image per class. Smoothing (a
// 3x3 box blur applied twice) gives prototypes spatial structure so that
// convolutions are genuinely useful, unlike iid-noise prototypes.
func makePrototypes(cfg SynthConfig, rng *rand.Rand) []*tensor.Tensor {
	protos := make([]*tensor.Tensor, cfg.Classes)
	for k := range protos {
		p := tensor.New(cfg.C, cfg.H, cfg.W)
		p.RandNormal(0, 1, rng)
		blur3x3(p, cfg)
		blur3x3(p, cfg)
		// Renormalize each prototype to unit RMS so classes are equally "loud".
		rms := p.Norm2() / sqrtF(float64(p.Size()))
		if rms > 0 {
			p.Scale(1 / rms)
		}
		protos[k] = p
	}
	return protos
}

func sqrtF(v float64) float64 {
	// tiny wrapper to avoid importing math for one call site
	x := v
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 30; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

func blur3x3(p *tensor.Tensor, cfg SynthConfig) {
	out := tensor.New(cfg.C, cfg.H, cfg.W)
	for c := 0; c < cfg.C; c++ {
		for y := 0; y < cfg.H; y++ {
			for x := 0; x < cfg.W; x++ {
				var s float64
				var n float64
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= cfg.H || xx < 0 || xx >= cfg.W {
							continue
						}
						s += p.At(c, yy, xx)
						n++
					}
				}
				out.Set(s/n, c, y, x)
			}
		}
	}
	copy(p.Data, out.Data)
}

func sampleSet(cfg SynthConfig, protos []*tensor.Tensor, n int, rng *rand.Rand) *Dataset {
	ds := &Dataset{
		X:      tensor.New(n, cfg.C, cfg.H, cfg.W),
		Labels: make([]int, n),
	}
	sample := cfg.C * cfg.H * cfg.W
	for i := 0; i < n; i++ {
		label := i % cfg.Classes // balanced classes, like CIFAR-10's 6,000/class
		ds.Labels[i] = label
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			ds.Labels[i] = rng.Intn(cfg.Classes)
		}
		// float64(...) rounds every product that feeds an add, so no
		// compiler fuses one (DESIGN §13). That includes the scaling
		// product inside the inlined Float64, which the doubling (x+x)
		// would otherwise fuse.
		amp := 1 + float64((float64(rng.Float64())*2-1)*cfg.AmpJitter)
		sy := 0
		sx := 0
		if cfg.ShiftPixels > 0 {
			sy = rng.Intn(2*cfg.ShiftPixels+1) - cfg.ShiftPixels
			sx = rng.Intn(2*cfg.ShiftPixels+1) - cfg.ShiftPixels
		}
		dst := ds.X.Data[i*sample : (i+1)*sample]
		proto := protos[label]
		for c := 0; c < cfg.C; c++ {
			for y := 0; y < cfg.H; y++ {
				src := proto.Data[(c*cfg.H+mod(y+sy, cfg.H))*cfg.W:][:cfg.W]
				row := dst[(c*cfg.H+y)*cfg.W:][:cfg.W]
				xx := mod(sx, cfg.W)
				for x := range row {
					row[x] = float64(amp*src[xx]) + float64(rng.NormFloat64()*cfg.NoiseStd)
					if xx++; xx == cfg.W {
						xx = 0
					}
				}
			}
		}
	}
	// Shuffle so shards are class-balanced on average rather than striped.
	ds.Shuffle(rng)
	return ds
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
