package wire

import (
	"encoding/binary"
	"fmt"
)

// Checkpoint encoding: a fixed header carrying the epoch the snapshot
// closed, followed by the standard parameter frame. One format serves
// both durability paths — core's on-disk checkpoint files and the PS
// group's store-backed checkpoints — so a file written at SIGTERM and a
// store value written at epoch close are interchangeable.

const ckptMagic = 0x56434B31 // "VCK1"

// EncodeCheckpoint serializes an epoch-stamped parameter snapshot: the
// checkpoint header and the parameter frame, in one buffer.
func EncodeCheckpoint(epoch int, params []float64) ([]byte, error) {
	if epoch < 0 {
		return nil, fmt.Errorf("wire: negative checkpoint epoch %d", epoch)
	}
	buf := make([]byte, 8, 8+MaxEncodedSize(len(params)))
	binary.LittleEndian.PutUint32(buf[0:], ckptMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(epoch))
	return appendParams(buf, params), nil
}

// DecodeCheckpoint reverses EncodeCheckpoint, verifying the embedded
// parameter checksum.
func DecodeCheckpoint(blob []byte) (epoch int, params []float64, err error) {
	if len(blob) < 8 {
		return 0, nil, fmt.Errorf("wire: checkpoint too short (%d bytes)", len(blob))
	}
	if m := binary.LittleEndian.Uint32(blob[0:]); m != ckptMagic {
		return 0, nil, fmt.Errorf("wire: bad checkpoint magic %#x", m)
	}
	epoch = int(binary.LittleEndian.Uint32(blob[4:]))
	params, err = DecodeParams(blob[8:])
	if err != nil {
		return 0, nil, err
	}
	return epoch, params, nil
}
