package tensor

import (
	"math"
	"math/rand"
)

// HeNormal fills t with draws from N(0, sqrt(2/fanIn)), the initializer the
// paper uses for its ResNetV2 parameters ("He-normal initializer").
func (t *Tensor) HeNormal(fanIn int, rng *rand.Rand) {
	if fanIn < 1 {
		fanIn = 1
	}
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// RandNormal fills t with draws from N(mean, std).
func (t *Tensor) RandNormal(mean, std float64, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()*std + mean
	}
}
