package nn

import (
	"math/rand"
	"testing"

	"sasgd/internal/tensor"
)

// segNet builds a small mixed stack — parameterless layers interleaved
// with parameterized ones — for the segment and step tests.
func segNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork([]int{1, 8, 8},
		NewConv2D(rng, 1, 3, 3, 3),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear(rng, 3*3*3, 10),
		NewTanh(),
		NewLinear(rng, 10, 4),
	)
}

func segBatch(seed int64) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(5, 1, 8, 8)
	x.FillUniform(rng, -1, 1)
	y := make([]int, 5)
	for i := range y {
		y[i] = rng.Intn(4)
	}
	return x, y
}

// TestParamSegmentsCoverFlatBuffer: segments are ordered, back-to-back,
// cover [0, NumParams()) exactly, and each one's length equals the sum of
// its layer's parameter sizes.
func TestParamSegmentsCoverFlatBuffer(t *testing.T) {
	net := segNet(1)
	segs := net.ParamSegments()
	if len(segs) != 3 { // conv, linear, linear
		t.Fatalf("got %d segments, want 3: %+v", len(segs), segs)
	}
	off := 0
	lastLayer := -1
	for _, s := range segs {
		if s.Off != off {
			t.Fatalf("segment %+v not back-to-back: want offset %d", s, off)
		}
		if s.Layer <= lastLayer {
			t.Fatalf("segment layers not strictly increasing: %+v", segs)
		}
		want := 0
		for _, p := range net.Layers()[s.Layer].Params() {
			want += p.Value.Size()
		}
		if s.Len != want {
			t.Fatalf("segment %+v length != layer param size %d", s, want)
		}
		off += s.Len
		lastLayer = s.Layer
	}
	if off != net.NumParams() {
		t.Fatalf("segments cover %d words, want NumParams %d", off, net.NumParams())
	}
}

// TestParamSegmentsAliasFlatStorage: writing through a segment's slice of
// ParamData must be visible to the layer's own Param tensors (the
// segments are views, not copies).
func TestParamSegmentsAliasFlatStorage(t *testing.T) {
	net := segNet(2)
	segs := net.ParamSegments()
	s := segs[len(segs)-1]
	net.ParamData()[s.Off] = 42.5
	last := net.Layers()[s.Layer].Params()[0]
	if last.Value.Data[0] != 42.5 {
		t.Fatal("ParamSegments do not alias the layer's parameter storage")
	}
}

// TestStepThenMatchesStepBitwise: after runs once, when the whole
// backward pass has finished — the gradient it sees is the final one —
// and does not perturb the pass: identical replicas stepping with and
// without it produce bitwise equal losses and gradients.
func TestStepThenMatchesStepBitwise(t *testing.T) {
	a, b := segNet(5), segNet(5)
	x, y := segBatch(6)
	la := a.Step(x, y)
	var calls int
	var seen []float64
	lb := b.StepThen(x, y, func() {
		calls++
		seen = append([]float64(nil), b.GradData()...)
	})
	if calls != 1 {
		t.Fatalf("after ran %d times, want once", calls)
	}
	if la != lb {
		t.Fatalf("loss differs: %g vs %g", la, lb)
	}
	for i := range a.GradData() {
		if a.GradData()[i] != b.GradData()[i] {
			t.Fatalf("gradient differs at %d", i)
		}
		if seen[i] != a.GradData()[i] {
			t.Fatalf("after saw gradient %g at %d, the pass ends with %g", seen[i], i, a.GradData()[i])
		}
	}
}
