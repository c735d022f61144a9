package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func checkpointNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork([]int{5},
		NewLinear(rng, 5, 7),
		NewTanh(),
		NewLinear(rng, 7, 3),
	)
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := checkpointNet(1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	dst := checkpointNet(2) // different initialization
	if err := dst.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := range src.ParamData() {
		if src.ParamData()[i] != dst.ParamData()[i] {
			t.Fatal("round trip did not restore parameters exactly")
		}
	}
}

func TestCheckpointWrongArchitecture(t *testing.T) {
	src := checkpointNet(1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	other := NewNetwork([]int{5}, NewLinear(rng, 5, 4))
	if err := other.Load(&buf); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Errorf("mismatched architecture load: err = %v", err)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	net := checkpointNet(1)
	if err := net.Load(bytes.NewReader([]byte("not a checkpoint at all"))); err == nil {
		t.Error("garbage accepted as checkpoint")
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	src := checkpointNet(1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[20] ^= 0xFF // flip a parameter byte
	dst := checkpointNet(1)
	if err := dst.Load(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted checkpoint: err = %v", err)
	}
}

func TestCheckpointTruncated(t *testing.T) {
	src := checkpointNet(1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()/2]
	dst := checkpointNet(1)
	if err := dst.Load(bytes.NewReader(raw)); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestCheckpointLoadFailureLeavesParamsIntact(t *testing.T) {
	dst := checkpointNet(4)
	before := append([]float64(nil), dst.ParamData()...)
	src := checkpointNet(1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[20] ^= 0xFF
	if err := dst.Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("corruption not detected")
	}
	for i := range before {
		if dst.ParamData()[i] != before[i] {
			t.Fatal("failed Load mutated the network")
		}
	}
}

// TestReadParamsHugeCountAllocatesAsWordsArrive: a header with a valid
// magic and version whose count claims 2³²−1 words, followed by EOF, is
// an error — and the reader allocated for the words that arrived (none),
// not the ~32 GiB the header asked for.
func TestReadParamsHugeCountAllocatesAsWordsArrive(t *testing.T) {
	var hdr bytes.Buffer
	for _, w := range []uint32{checkpointMagic, checkpointVersion, 0xFFFFFFFF} {
		binary.Write(&hdr, binary.LittleEndian, w)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadParams(bytes.NewReader(hdr.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no payload was accepted")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 16<<20 {
		t.Errorf("ReadParams allocated %d bytes for a payload that never arrived", grown)
	}
}
