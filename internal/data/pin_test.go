package data

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// corpusDigest is an FNV-64a over the bits of every float64 and every
// label of the corpus, split by split (train, val, test).
func corpusDigest(c *Corpus) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, ds := range []*Dataset{c.Train, c.Val, c.Test} {
		for _, v := range ds.X.Data {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		for _, l := range ds.Labels {
			binary.LittleEndian.PutUint64(w[:], uint64(l))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// TestGenerateSynthBitsPinned pins the corpora bit for bit. Every shard
// blob, every golden trace and every accuracy the benchmark checks rests
// on these samples, so a faster generator must produce the same bits
// from the same draws in the same order.
func TestGenerateSynthBitsPinned(t *testing.T) {
	synth := DefaultSynthConfig() // seed 1, NTrain 5000: the live_train corpus
	sc, err := GenerateSynth(synth)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := GenerateTimeSeries(DefaultTimeSeriesConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name      string
		got, want uint64
	}{
		{"synth", corpusDigest(sc), 0x7e5e5ae4e40474b9},
		{"timeseries", corpusDigest(tc), 0x4a3e19d657f1b560},
	} {
		if tt.got != tt.want {
			t.Errorf("%s corpus digest %#016x, want %#016x", tt.name, tt.got, tt.want)
		}
	}
}
