package core

import (
	"fmt"
	"os"

	"vcdl/internal/wire"
)

// Checkpointing. The paper's system snapshots the central parameter copy
// as a compressed .h5 file per epoch; these helpers give the server the
// same durability for the flat parameter vector in the VCK1 frame.

// SaveCheckpoint writes an epoch-stamped checkpoint to path, atomically
// (temp file + rename). It records which epoch the snapshot closed, so a
// restarted server resumes at epoch+1 instead of retraining from scratch.
func SaveCheckpoint(path string, epoch int, params []float64) error {
	blob, err := wire.EncodeCheckpoint(epoch, params)
	if err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: commit checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (epoch int, params []float64, err error) {
	blob, rerr := os.ReadFile(path)
	if rerr != nil {
		return 0, nil, fmt.Errorf("core: read checkpoint: %w", rerr)
	}
	epoch, params, err = wire.DecodeCheckpoint(blob)
	if err != nil {
		return 0, nil, fmt.Errorf("core: decode checkpoint %s: %w", path, err)
	}
	return epoch, params, nil
}
