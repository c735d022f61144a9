package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpointing: a network's learnable state is its flat parameter
// vector, so checkpoints are a small framed binary format — magic,
// version, parameter count, raw float64 parameters, CRC — rather than a
// reflection-based encoding. A checkpoint written by any replica of a
// model restores into any other replica of the same architecture (the
// architectures themselves are code, as in the model zoo).

const (
	checkpointMagic   = 0x5a534753 // "SGSZ"
	checkpointVersion = 1
)

// WriteParams writes a flat parameter vector to w in the checkpoint
// format. Exposed as a package function so core's training-state
// checkpoints can embed parameter frames (and arbitrary float64 state
// vectors) with the same framing, versioning and integrity check.
func WriteParams(w io.Writer, params []float64) error {
	header := []uint32{checkpointMagic, checkpointVersion, uint32(len(params))}
	for _, h := range header {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("nn: writing checkpoint header: %w", err)
		}
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 8)
	for _, v := range params {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("nn: writing checkpoint parameters: %w", err)
		}
		crc.Write(buf)
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("nn: writing checkpoint checksum: %w", err)
	}
	return nil
}

// ReadParams reads one parameter frame previously written by
// WriteParams, verifying magic, version and checksum.
func ReadParams(r io.Reader) ([]float64, error) {
	var magic, version, count uint32
	for _, dst := range []*uint32{&magic, &version, &count} {
		if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("nn: reading checkpoint header: %w", err)
		}
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("nn: not a checkpoint (magic %#x)", magic)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 8)
	// The count is the file's word, not yet the payload's: grow with the
	// words that arrive, so a corrupt header cannot ask for gigabytes.
	tmp := make([]float64, 0, min(count, 1<<16))
	for range count {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("nn: reading checkpoint parameters: %w", err)
		}
		crc.Write(buf)
		tmp = append(tmp, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
	}
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("nn: reading checkpoint checksum: %w", err)
	}
	if sum != crc.Sum32() {
		return nil, fmt.Errorf("nn: checkpoint checksum mismatch")
	}
	return tmp, nil
}
