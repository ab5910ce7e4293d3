package data

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func smallConfig() SynthConfig {
	cfg := DefaultSynthConfig()
	cfg.NTrain, cfg.NVal, cfg.NTest = 200, 50, 50
	return cfg
}

func TestGenerateSynthShapes(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Train.N() != 200 || c.Val.N() != 50 || c.Test.N() != 50 {
		t.Fatalf("split sizes %d/%d/%d", c.Train.N(), c.Val.N(), c.Test.N())
	}
	want := []int{200, 3, 8, 8}
	got := c.Train.X.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("train shape %v, want %v", got, want)
		}
	}
	if c.Train.Classes() != 10 {
		t.Fatalf("classes = %d", c.Train.Classes())
	}
}

func TestGenerateSynthDeterministic(t *testing.T) {
	a, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train.X.Data {
		if a.Train.X.Data[i] != b.Train.X.Data[i] {
			t.Fatal("same seed must give identical data")
		}
	}
	cfg := smallConfig()
	cfg.Seed = 2
	c, err := GenerateSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Train.X.Data {
		if a.Train.X.Data[i] != c.Train.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateSynthBalancedClasses(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 10)
	for _, l := range c.Train.Labels {
		counts[l]++
	}
	for k, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d samples, want 20", k, n)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []SynthConfig{
		{Classes: 1, C: 3, H: 8, W: 8, NTrain: 100},
		{Classes: 10, C: 0, H: 8, W: 8, NTrain: 100},
		{Classes: 10, C: 3, H: 8, W: 8, NTrain: 5},
		{Classes: 10, C: 3, H: 8, W: 8, NTrain: 100, NoiseStd: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
}

func TestSplitSizesAndContent(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	shards := c.Train.Split(7)
	if len(shards) != 7 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	for i, s := range shards {
		total += s.N()
		// 200 = 7*28 + 4, so shards 0..3 get 29, rest 28.
		want := 28
		if i < 4 {
			want = 29
		}
		if s.N() != want {
			t.Fatalf("shard %d size %d, want %d", i, s.N(), want)
		}
	}
	if total != 200 {
		t.Fatalf("shards cover %d samples, want 200", total)
	}
	// First shard content must equal the first samples of the dataset.
	x0, l0 := c.Train.Batch(0, shards[0].N())
	for i := range shards[0].X.Data {
		if shards[0].X.Data[i] != x0.Data[i] {
			t.Fatal("shard 0 images differ from dataset prefix")
		}
	}
	for i := range l0 {
		if shards[0].Labels[i] != l0[i] {
			t.Fatal("shard 0 labels differ from dataset prefix")
		}
	}
}

func TestSplitIsDeepCopy(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	shards := c.Train.Split(2)
	orig := c.Train.X.Data[0]
	shards[0].X.Data[0] = orig + 42
	if c.Train.X.Data[0] != orig {
		t.Fatal("shard mutation leaked into parent dataset")
	}
}

func TestFiftyShardTopologyMatchesPaper(t *testing.T) {
	// The paper splits 50,000 training images into 50 shards of 1,000; our
	// default (5,000) must split into 50 shards of 100.
	cfg := DefaultSynthConfig()
	cfg.NVal, cfg.NTest = 10, 10 // keep generation fast
	c, err := GenerateSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := c.Train.Split(50)
	for _, s := range shards {
		if s.N() != 100 {
			t.Fatalf("shard size %d, want 100", s.N())
		}
	}
}

func TestShuffleKeepsPairing(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Record a fingerprint per label before shuffling: sum of pixels of
	// each sample keyed by its first pixel.
	type pair struct {
		first float64
		label int
	}
	pairs := map[float64]int{}
	sample := c.Train.X.Size() / c.Train.N()
	for i := 0; i < c.Train.N(); i++ {
		pairs[c.Train.X.Data[i*sample]] = c.Train.Labels[i]
	}
	c.Train.Shuffle(rand.New(rand.NewSource(7)))
	for i := 0; i < c.Train.N(); i++ {
		if want, ok := pairs[c.Train.X.Data[i*sample]]; ok {
			if c.Train.Labels[i] != want {
				t.Fatal("shuffle broke image/label pairing")
			}
		}
	}
	_ = pair{}
}

func TestBatchViewAliases(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	x, _ := c.Train.Batch(0, 10)
	x.Data[0] = 123
	if c.Train.X.Data[0] != 123 {
		t.Fatal("Batch should return a view, not a copy")
	}
}

func TestBatchOutOfRangePanics(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Batch did not panic")
		}
	}()
	c.Train.Batch(0, c.Train.N()+1)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	shard := c.Train.Split(4)[1]
	blob, err := shard.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != shard.N() {
		t.Fatalf("N = %d, want %d", back.N(), shard.N())
	}
	for i := range shard.X.Data {
		if shard.X.Data[i] != back.X.Data[i] {
			t.Fatal("image data mismatch")
		}
	}
	for i := range shard.Labels {
		if shard.Labels[i] != back.Labels[i] {
			t.Fatal("label mismatch")
		}
	}
}

// EncodeAll must return, at every worker count, exactly the bytes Encode
// returns for each shard, each blob in its own buffer.
func TestEncodeAllMatchesEncode(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	shards := append(c.Train.Split(49), c.Train.Subset(0, 0))
	empty := shards[49]
	want := make(map[*Dataset][]byte)
	for _, s := range shards {
		if want[s], err = s.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, set := range [][]*Dataset{nil, shards[:1], {shards[0], empty, shards[1]}, shards} {
			blobs, err := EncodeAll(set)
			if err != nil {
				t.Fatal(err)
			}
			if blobs == nil || len(blobs) != len(set) {
				t.Fatalf("GOMAXPROCS %d: %d shards gave %d blobs (nil %v)", procs, len(set), len(blobs), blobs == nil)
			}
			for i, b := range blobs {
				if !bytes.Equal(b, want[set[i]]) {
					t.Fatalf("GOMAXPROCS %d, %d shards: blob %d differs from Encode", procs, len(set), i)
				}
			}
			// No two blobs may share a backing array: compare the
			// address ranges their capacities span.
			for i, a := range blobs {
				for j, b := range blobs[:i] {
					a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
					if a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a)) {
						t.Fatalf("GOMAXPROCS %d: blobs %d and %d share a backing array", procs, j, i)
					}
				}
			}
		}
	}
	// An empty input starts no worker: the workers' shared counter and
	// wait group live on the heap, and the empty result allocates nothing.
	if n := testing.AllocsPerRun(10, func() { EncodeAll(nil) }); n != 0 {
		t.Fatalf("EncodeAll(nil) allocated %v times, want 0", n)
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	if _, err := Decode([]byte("not a gzip stream")); err == nil {
		t.Fatal("garbage should not decode")
	}
}

func TestDecodeTruncatedFails(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Val.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob[:len(blob)/3]); err == nil {
		t.Fatal("truncated blob should not decode")
	}
}

func TestEncodeCompresses(t *testing.T) {
	// Synthetic images are noisy so compression is modest, but the encoded
	// blob must at least not balloon beyond the raw float64 size.
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Train.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw := 8 * c.Train.X.Size()
	if len(blob) > raw {
		t.Fatalf("encoded %d bytes > raw %d bytes", len(blob), raw)
	}
}

// Property: Split(k) always covers the dataset exactly, for any k in range.
func TestSplitCoversProperty(t *testing.T) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(kRaw uint8) bool {
		k := int(kRaw)%c.Train.N() + 1
		shards := c.Train.Split(k)
		total := 0
		for _, s := range shards {
			total += s.N()
		}
		if total != c.Train.N() || len(shards) != k {
			return false
		}
		// Sizes differ by at most 1.
		min, max := shards[0].N(), shards[0].N()
		for _, s := range shards {
			if s.N() < min {
				min = s.N()
			}
			if s.N() > max {
				max = s.N()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The noise knob must actually change task difficulty: with zero noise,
// same-class samples are far more similar than cross-class samples.
func TestNoiseControlsSeparability(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseStd = 0
	cfg.ShiftPixels = 0
	cfg.AmpJitter = 0
	c, err := GenerateSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sample := c.Train.X.Size() / c.Train.N()
	// With no jitter at all, two samples of the same class are identical.
	var i0, i1 = -1, -1
	for i, l := range c.Train.Labels {
		if l == 0 {
			if i0 == -1 {
				i0 = i
			} else {
				i1 = i
				break
			}
		}
	}
	d := 0.0
	for j := 0; j < sample; j++ {
		d += math.Abs(c.Train.X.Data[i0*sample+j] - c.Train.X.Data[i1*sample+j])
	}
	if d > 1e-9 {
		t.Fatalf("zero-noise same-class distance %v, want 0", d)
	}
}
