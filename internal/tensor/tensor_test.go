package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{[]int{}, 1},
		{[]int{4}, 4},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, tt.Size(), c.size)
		}
		if tt.Dims() != len(c.shape) {
			t.Errorf("New(%v).Dims() = %d, want %d", c.shape, tt.Dims(), len(c.shape))
		}
	}
}

func TestNewNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(d, 2, 3)
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g, want 6", m.At(1, 2))
	}
	m.Set(42, 0, 1)
	if d[1] != 42 {
		t.Error("FromSlice did not adopt backing storage")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(3, 4, 5)
	m.Set(7.5, 2, 1, 3)
	if got := m.At(2, 1, 3); got != 7.5 {
		t.Errorf("At after Set = %g, want 7.5", got)
	}
	// row-major offset: ((2*4)+1)*5+3 = 48
	if m.Data[48] != 7.5 {
		t.Errorf("flat layout wrong: Data[48] = %g", m.Data[48])
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0, 2}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			m.At(idx...)
		}()
	}
}

func TestReshapeSharesData(t *testing.T) {
	m := New(2, 6)
	r := m.Reshape(3, 4)
	r.Set(9, 2, 3)
	if m.At(1, 5) != 9 {
		t.Error("Reshape does not share backing data")
	}
}

func TestReshapeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	m := Full(3, 2, 2)
	c := m.Clone()
	c.Set(0, 0, 0)
	if m.At(0, 0) != 3 {
		t.Error("Clone shares storage with original")
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice([]float64{3, -1, 4, 1, -5, 9}, 6)
	if m.Sum() != 11 {
		t.Errorf("Sum = %g, want 11", m.Sum())
	}
	if math.Abs(m.Mean()-11.0/6) > 1e-12 {
		t.Errorf("Mean = %g", m.Mean())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, -5, 6}, 3)
	if got := a.Dot(b); got != 12 {
		t.Errorf("Dot = %g, want 12", got)
	}
}

func TestFillRandnMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(20000)
	m.FillRandn(rng, 2, 3)
	mean := m.Mean()
	if math.Abs(mean-2) > 0.1 {
		t.Errorf("FillRandn mean = %g, want ≈2", mean)
	}
	variance := 0.0
	for _, v := range m.Data {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(m.Size())
	if math.Abs(math.Sqrt(variance)-3) > 0.15 {
		t.Errorf("FillRandn std = %g, want ≈3", math.Sqrt(variance))
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(1000)
	m.FillUniform(rng, -0.25, 0.75)
	for _, v := range m.Data {
		if v < -0.25 || v >= 0.75 {
			t.Fatalf("FillUniform value %g out of range", v)
		}
	}
}

func TestEqualTolerance(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1.0005, 2}, 2)
	if !a.Equal(b, 1e-3) {
		t.Error("Equal within tolerance returned false")
	}
	if a.Equal(b, 1e-6) {
		t.Error("Equal outside tolerance returned true")
	}
	c := FromSlice([]float64{1, 2}, 1, 2)
	if a.Equal(c, 1) {
		t.Error("Equal with different shapes returned true")
	}
}

// Property: axpy is linear — axpy(a, x, y) then axpy(-a, x, y) restores y.
func TestAxpyInverseProperty(t *testing.T) {
	f := func(seed int64, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		x, y := New(37), New(37)
		x.FillRandn(rng, 0, 1)
		y.FillRandn(rng, 0, 1)
		orig := y.Clone()
		Axpy(a, x.Data, y.Data)
		Axpy(-a, x.Data, y.Data)
		return y.Equal(orig, 1e-9*(1+math.Abs(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Sum is invariant under Reshape.
func TestSumReshapeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(6, 4)
		m.FillRandn(rng, 0, 1)
		return math.Abs(m.Sum()-m.Reshape(3, 8).Sum()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Error("String of small tensor empty")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Error("String of big tensor empty")
	}
}
