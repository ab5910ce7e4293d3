package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, 5000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, 7, params); err != nil {
		t.Fatal(err)
	}
	epoch, back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("epoch %d, want 7", epoch)
	}
	if len(back) != len(params) {
		t.Fatalf("len %d, want %d", len(back), len(params))
	}
	for i := range params {
		if params[i] != back[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestCheckpointAtomicNoTempLeft(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := SaveCheckpoint(path, 1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d files, want just the checkpoint", len(entries))
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, 1, make([]float64, 4096)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("corrupted checkpoint must fail to load")
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	if _, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing checkpoint must error")
	}
}

// TestCheckpointResumesTraining verifies the end-to-end use: train, save,
// reload into a fresh network, and confirm identical evaluation.
func TestCheckpointResumesTraining(t *testing.T) {
	corpus := testCorpus(t)
	cfg := testJobConfig()
	cfg.MaxEpochs = 2
	res, err := RunLocal(cfg, corpus, LocalConfig{Clients: 2, TasksPerClient: 1, PServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := SaveCheckpoint(path, cfg.MaxEpochs, res.FinalParams); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(cfg.Builder, corpus.Val, 0, 50)
	if eval.Accuracy(res.FinalParams) != eval.Accuracy(loaded) {
		t.Fatal("checkpointed parameters evaluate differently")
	}
}
