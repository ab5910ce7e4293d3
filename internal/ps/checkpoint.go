package ps

import (
	"fmt"

	"vcdl/internal/wire"
)

// Durable checkpoints (DESIGN.md §11). The live parameter copy at
// DefaultKey is continuously overwritten by assimilations, and under an
// eventual store a failed-over reader may see it stale or mid-merge.
// The checkpoint key instead holds the last *epoch-closed* snapshot,
// written once per epoch: a coherent (epoch, params) pair a resized or
// restarted PS group can restore instead of retraining from epoch 1.

// CheckpointKey is the store key holding the latest epoch checkpoint.
const CheckpointKey = "model/checkpoint"

// SaveCheckpoint snapshots params as the epoch-e checkpoint in the
// shared store. Monotonic: a concurrent or replayed save for an older
// epoch never overwrites a newer checkpoint.
func (g *Group) SaveCheckpoint(epoch int, params []float64) error {
	blob, err := wire.EncodeCheckpoint(epoch, params)
	if err != nil {
		return fmt.Errorf("ps: encode checkpoint: %w", err)
	}
	st := g.first().Store
	err = st.Update(CheckpointKey, func(old []byte) []byte {
		if oldEpoch, _, derr := wire.DecodeCheckpoint(old); derr == nil && oldEpoch >= epoch {
			return old
		}
		return blob
	})
	if err != nil {
		return fmt.Errorf("ps: save checkpoint: %w", err)
	}
	return nil
}

// LatestCheckpoint reads the newest checkpoint from the shared store,
// decoding it from the bytes the store lends into a vector of its own.
// Returns epoch 0 and no error when none has been written yet.
func (g *Group) LatestCheckpoint() (epoch int, params []float64, err error) {
	var empty bool
	verr := g.first().Store.View(CheckpointKey, func(blob []byte, _ uint64) {
		if empty = len(blob) == 0; !empty {
			epoch, params, err = wire.DecodeCheckpoint(blob)
		}
	})
	if verr != nil || empty {
		return 0, nil, nil // no checkpoint yet
	}
	if err != nil {
		return 0, nil, fmt.Errorf("ps: decode checkpoint: %w", err)
	}
	return epoch, params, nil
}

// RestoreCheckpoint republishes the latest checkpoint's parameters as
// the live server copy, returning the epoch it had closed (0 when no
// checkpoint exists — the caller keeps its current parameters). This is
// the failover path: after Resize drops dead servers, the survivors
// roll the possibly-torn live copy back to the last coherent snapshot.
func (g *Group) RestoreCheckpoint() (int, error) {
	epoch, params, err := g.LatestCheckpoint()
	if err != nil {
		return 0, err
	}
	if epoch == 0 || params == nil {
		return 0, nil
	}
	if err := g.Publish(params); err != nil {
		return 0, fmt.Errorf("ps: restore checkpoint: %w", err)
	}
	return epoch, nil
}
