package core

import (
	"bytes"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/wire"
)

// tensorUseAVX2 is internal/tensor's unexported kernel dispatch switch,
// reached by linkname so that no production API exists to turn the
// assembly kernels off.
//
//go:linkname tensorUseAVX2 vcdl/internal/tensor.useAVX2
var tensorUseAVX2 bool

// TestExecutorSubtaskSameBitsBothPaths runs one whole subtask of each
// model the benchmarks train — forward, backward, Adam, every conv and
// dense product — with the AVX2 kernels and with the Go loops, and
// requires the two uploads to be the same bytes.
func TestExecutorSubtaskSameBitsBothPaths(t *testing.T) {
	if !tensorUseAVX2 {
		t.Skip("no AVX2 kernels on this host: the Go loops are the only path")
	}
	defer func() { tensorUseAVX2 = true }()

	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 100, 10, 10
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name    string
		builder func() []nn.Layer
		batch   int
	}{
		{"MiniResNet", nn.MiniResNetV2Builder(dc.C, dc.H, dc.W, 8, 1, dc.Classes), 25}, // live_train
		{"SmallCNN", nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes), 8},              // sim_fleet
	}
	for _, m := range models {
		cfg := DefaultJobConfig(m.builder)
		cfg.BatchSize = m.batch
		net := nn.NewNetwork(cfg.Builder)
		net.Init(rand.New(rand.NewSource(5)))
		params := net.Parameters()

		var uploads [2][]byte
		for i, avx2 := range []bool{true, false} {
			tensorUseAVX2 = avx2
			got, _ := NewExecutor(cfg).Run(params, corpus.Train, 7)
			if uploads[i], err = wire.EncodeParams(got); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(uploads[0], uploads[1]) {
			t.Errorf("%s: the AVX2 and Go kernels uploaded different bytes", m.name)
		}
	}
}
