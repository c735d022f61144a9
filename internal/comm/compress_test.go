package comm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// ---------------------------------------------------------------------
// Selection core.

// refOrder is the full sort selection is defined by: every index, by
// magnitude descending, ties by index ascending.
func refOrder(dense []float64) []int {
	idx := make([]int, len(dense))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ma, mb := math.Abs(dense[idx[a]]), math.Abs(dense[idx[b]])
		if ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// refSelect is the full-sort reference the radix selection must match:
// indices of the k largest-magnitude entries, ties broken toward lower
// indices, returned in ascending index order.
func refSelect(dense []float64, k int) []int { return topOf(refOrder(dense), k) }

// topOf returns the first k entries of a refOrder in ascending order.
func topOf(order []int, k int) []int {
	top := append([]int(nil), order[:min(k, len(order))]...)
	sort.Ints(top)
	return top
}

// selectIdx drives the selector's three passes over a dense vector the
// way the codec does and appends the selected indices to idx.
func selectIdx(s *selector, dense []float64, k int, idx []int) []int {
	for _, v := range dense {
		s.count(v)
	}
	s.cut(dense, k)
	for i, v := range dense {
		if s.take(v) {
			idx = append(idx, i)
		}
	}
	return idx
}

// checkSelection compares the selector with the sort reference's choice
// on one input and checks that the histogram is left clear for the next.
func checkSelection(t *testing.T, s *selector, dense []float64, k int, want []int) {
	t.Helper()
	got := selectIdx(s, dense, k, nil)
	if !slices.Equal(got, want) {
		if len(dense) > 64 {
			t.Fatalf("n=%d k=%d: selected %d entries, reference %d, or different ones", len(dense), k, len(got), len(want))
		}
		t.Fatalf("n=%d k=%d: selection %v != reference %v of %v", len(dense), k, got, want, dense)
	}
	for key, c := range s.hist {
		if c != 0 {
			t.Fatalf("n=%d k=%d: histogram bin %#x left at %d", len(dense), k, key, c)
		}
	}
}

// TestSelectorMatchesSortReference: the radix selection must keep
// exactly the entries a full (magnitude descending, index ascending)
// sort would keep, including tie-heavy inputs where the threshold
// magnitude repeats many times.
func TestSelectorMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s selector
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		dense := make([]float64, n)
		for i := range dense {
			if trial%3 == 0 {
				// Quantized values force magnitude ties on the threshold.
				dense[i] = float64(rng.Intn(7)-3) * 0.5
			} else {
				dense[i] = rng.NormFloat64()
			}
		}
		k := 1 + rng.Intn(n)
		checkSelection(t, &s, dense, k, refSelect(dense, k))
	}
}

// TestSelectorAdversarialInputs: selection ≡ full sort on the inputs a
// histogram of bit patterns could get wrong — one magnitude everywhere,
// zeros of both signs, subnormals, the whole exponent range, infinities,
// and magnitudes that all share one 16-bit key so that the refinement
// step sees every element — at the sizes the codec meets (a lone word, a
// 448-word conv bucket, the benchmark's 276 971-word net) and at the
// ends of k.
func TestSelectorAdversarialInputs(t *testing.T) {
	fills := []struct {
		name string
		at   func(rng *rand.Rand, i int) float64
	}{
		{"all equal magnitude", func(rng *rand.Rand, i int) float64 { return 0.25 * float64(1-2*(i%2)) }},
		{"all zero", func(*rand.Rand, int) float64 { return 0 }},
		{"mixed signed zeros", func(rng *rand.Rand, i int) float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }},
		{"subnormals only", func(rng *rand.Rand, i int) float64 {
			return math.Copysign(math.Float64frombits(uint64(rng.Int63n(1<<52))), float64(rng.Intn(2))-0.5)
		}},
		{"1e-300 to 1e300", func(rng *rand.Rand, i int) float64 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300))
		}},
		{"infinities among finite", func(rng *rand.Rand, i int) float64 {
			if rng.Intn(8) == 0 {
				return math.Inf(rng.Intn(2)*2 - 1)
			}
			return rng.NormFloat64()
		}},
		{"one 16-bit key", func(rng *rand.Rand, i int) float64 {
			// [1, 1+2⁻⁵): exponent and top five mantissa bits fixed, a few
			// distinct values so the cut falls inside a run of ties.
			return math.Copysign(1+float64(rng.Intn(50))/4096, float64(rng.Intn(2))-0.5)
		}},
		{"neighbouring bit patterns", func(rng *rand.Rand, i int) float64 {
			// Magnitudes a few ulps apart: only the lowest byte tells them apart.
			return math.Copysign(math.Float64frombits(math.Float64bits(1)+uint64(rng.Intn(200))), float64(rng.Intn(2))-0.5)
		}},
		{"gaussian", func(rng *rand.Rand, i int) float64 { return rng.NormFloat64() }},
	}
	var s selector
	for _, n := range []int{1, 2, 448, 276971} {
		if n > 448 && testing.Short() {
			continue // the reference sorts 277k entries per case
		}
		ks := map[int]bool{1: true, n: true}
		if n > 1 {
			ks[n-1] = true
			ks[SparsityK(0.05, n)] = true
		}
		for _, fill := range fills {
			rng := rand.New(rand.NewSource(int64(n)))
			dense := make([]float64, n)
			for i := range dense {
				dense[i] = fill.at(rng, i)
			}
			order := refOrder(dense)
			for k := range ks {
				t.Run(fmt.Sprintf("%s/n=%d/k=%d", fill.name, n, k), func(t *testing.T) {
					checkSelection(t, &s, dense, k, topOf(order, k))
				})
			}
		}
	}
}

// TestSelectorLowIndexWinsTies: entries of the threshold magnitude are
// taken from the lowest index up, whatever their sign, and twice the
// same way.
func TestSelectorLowIndexWinsTies(t *testing.T) {
	var s selector
	dense := []float64{1, -1, 1, -1, 3, -1}
	for run := 0; run < 2; run++ {
		if got, want := selectIdx(&s, dense, 3, nil), []int{0, 1, 4}; !slices.Equal(got, want) {
			t.Fatalf("run %d: selected %v, want %v", run, got, want)
		}
	}
}

// TestSelectorShipsNaN pins the NaN policy: a NaN's bit pattern orders
// above every number's, +Inf's included, so NaNs are selected before
// anything else (lowest index first among themselves when there are more
// than k) and a diverged coordinate is transmitted, not kept back.
func TestSelectorShipsNaN(t *testing.T) {
	nan := math.NaN()
	var s selector
	dense := []float64{1, math.Inf(1), nan, -3, -nan, 1e300}
	for k, want := range map[int][]int{1: {2}, 2: {2, 4}, 3: {1, 2, 4}, 4: {1, 2, 4, 5}} {
		if got := selectIdx(&s, dense, k, nil); !slices.Equal(got, want) {
			t.Errorf("k=%d: selected %v, want %v", k, got, want)
		}
	}

	seg := []float64{0.5, nan, 2, -1}
	res := make([]float64, len(seg))
	c := NewCompressor("topk")
	c.Allreduce(NewGroup(1), 0, seg, res, 0.25, 0, nil, 0)
	if !math.IsNaN(seg[1]) || seg[0] != 0 || seg[2] != 0 || seg[3] != 0 {
		t.Errorf("aggregate %v, want the NaN alone at coordinate 1", seg)
	}
	if want := []float64{0.5, 0, 2, -1}; !slices.Equal(res, want) {
		t.Errorf("residual %v, want %v (the NaN left with the frame)", res, want)
	}
	if sent2, _ := c.TakeCapture(); !math.IsNaN(sent2) {
		t.Errorf("sent² = %g, want NaN", sent2)
	}
}

// TestSelectorCutIsKthLargest: the threshold the cut settles on is the
// k-th largest magnitude and the tie quota is what is left of k above
// it; duplicates exercise both.
func TestSelectorCutIsKthLargest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s selector
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(100)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(10)) * float64(1-2*rng.Intn(2))
		}
		k := 1 + rng.Intn(n)
		for _, v := range a {
			s.count(v)
		}
		s.cut(a, k)
		ref := make([]float64, n)
		for i, v := range a {
			ref[i] = math.Abs(v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(ref)))
		above := sort.Search(n, func(i int) bool { return ref[i] <= ref[k-1] })
		if got := math.Float64frombits(s.t); got != ref[k-1] || s.ties != k-above {
			t.Fatalf("trial %d: threshold %g with %d ties, want %g with %d (k=%d, a=%v)", trial, got, s.ties, ref[k-1], k-above, k, a)
		}
	}
}

func TestSparsityKRounding(t *testing.T) {
	cases := []struct {
		ratio float64
		n     int
		want  int
	}{
		{0.05, 100, 5},
		{0.05, 130, 7}, // ceil(6.5)
		{0.01, 10, 1},  // clamps up to 1
		{0.999999, 1000, 1000},
		{1, 64, 64},
		{0.5, 1, 1},
		{0, 10, 1},  // k ≤ 0 clamps up
		{-1, 10, 1}, //
		{2, 10, 10}, // k ≥ n clamps down
	}
	for _, c := range cases {
		if got := SparsityK(c.ratio, c.n); got != c.want {
			t.Errorf("SparsityK(%g, %d) = %d, want %d", c.ratio, c.n, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------
// Error-feedback conservation (the codec contract), p = 1: no peers, so
// the invariant is checkable coordinate by coordinate, bitwise.

func TestCodecConservationBitwise(t *testing.T) {
	for _, codec := range []string{"topk", "qint8"} {
		t.Run(codec, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			const n = 257
			g := NewGroup(1)
			comp := NewCompressor(codec)
			seg := make([]float64, n)
			res := make([]float64, n)
			for round := 0; round < 5; round++ {
				for i := range seg {
					seg[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
				}
				// folded is the exact quantity the codec splits: it folds res
				// into seg with the same addition, so the sum is reproducible
				// bitwise.
				folded := make([]float64, n)
				for i := range folded {
					folded[i] = seg[i] + res[i]
				}
				comp.Allreduce(g, 0, seg, res, 0.1, 0, nil, 0)
				// At p=1 the "aggregate" in seg is exactly this rank's own
				// transmitted part, so transmitted + res_after == folded must
				// hold bitwise at every coordinate — no gradient mass is ever
				// created or destroyed by the codec.
				for i := range folded {
					if got := seg[i] + res[i]; got != folded[i] {
						t.Fatalf("round %d coord %d: transmitted %g + residual %g = %g, want %g (conservation broken)",
							round, i, seg[i], res[i], got, folded[i])
					}
				}
			}
		})
	}
}

// TestTopKErrorFeedbackMatchesReference replays five rounds of error
// feedback against the codec's definition written out in the plainest
// way — fold, full-sort selection, split, two separate norm walks — and
// requires the aggregate, the residual and both captured squared norms
// to match bit for bit, round by round and in the running totals. The
// quantized rounds put ties on the threshold.
func TestTopKErrorFeedbackMatchesReference(t *testing.T) {
	const n, ratio = 1000, 0.05
	k := SparsityK(ratio, n)
	rng := rand.New(rand.NewSource(23))
	g := NewGroup(1)
	comp := NewCompressor("topk")
	seg := make([]float64, n)
	res := make([]float64, n)
	wantRes := make([]float64, n)
	var wantTotSent, wantTotResid float64
	for round := 0; round < 5; round++ {
		for i := range seg {
			if round%2 == 1 {
				seg[i] = float64(rng.Intn(9)-4) * 0.125
			} else {
				seg[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
		}
		folded := make([]float64, n)
		for i := range folded {
			folded[i] = seg[i] + wantRes[i]
		}
		wantSeg := make([]float64, n)
		copy(wantRes, folded)
		var wantSent, wantResid float64
		for _, j := range refSelect(folded, k) {
			wantSeg[j] = folded[j]
			wantSent += folded[j] * folded[j]
			wantRes[j] = 0
		}
		for _, v := range wantRes {
			wantResid += v * v
		}
		wantTotSent += wantSent
		wantTotResid += wantResid

		comp.Allreduce(g, 0, seg, res, ratio, 0, nil, 0)
		for i := range seg {
			if math.Float64bits(seg[i]) != math.Float64bits(wantSeg[i]) {
				t.Fatalf("round %d: aggregate[%d] = %g, want %g (bitwise)", round, i, seg[i], wantSeg[i])
			}
			if math.Float64bits(res[i]) != math.Float64bits(wantRes[i]) {
				t.Fatalf("round %d: residual[%d] = %g, want %g (bitwise)", round, i, res[i], wantRes[i])
			}
		}
		if sent, resid := comp.TakeCapture(); sent != wantSent || resid != wantResid {
			t.Fatalf("round %d: captured sent² %v resid² %v, want %v %v (bitwise)", round, sent, resid, wantSent, wantResid)
		}
	}
	if sent, resid := comp.Totals(); sent != wantTotSent || resid != wantTotResid {
		t.Fatalf("totals sent² %v resid² %v, want %v %v (bitwise)", sent, resid, wantTotSent, wantTotResid)
	}
}

// TestResparsifyMatchesSortReference: the root's cut of a merged pair
// list keeps exactly the pairs a full sort of the merged values would
// keep, in coordinate order, and every dropped value lands in the
// residual at its own coordinate, added once — on smooth values, on ties
// across the threshold and on a list that is one magnitude throughout.
func TestResparsifyMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := &topkCompressor{}
	for trial := 0; trial < 150; trial++ {
		const n = 400
		pairs := 2 + rng.Intn(120)
		coords := rng.Perm(n)[:pairs]
		sort.Ints(coords)
		acc := make([]float64, 0, 2*pairs)
		vals := make([]float64, pairs)
		for i, j := range coords {
			switch trial % 3 {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(7)-3) * 0.5
			default:
				vals[i] = 2 * float64(1-2*rng.Intn(2))
			}
			acc = append(acc, float64(j), vals[i])
		}
		k := 1 + rng.Intn(pairs-1)
		res := make([]float64, n)
		for i := range res {
			res[i] = rng.NormFloat64() * 0.01
		}
		wantRes := append([]float64(nil), res...)
		var want []float64
		kept := make(map[int]bool, k)
		for _, pi := range refSelect(vals, k) {
			want = append(want, float64(coords[pi]), vals[pi])
			kept[pi] = true
		}
		for pi, j := range coords {
			if !kept[pi] {
				wantRes[j] += vals[pi]
			}
		}
		got := c.resparsify(acc, k, res)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d k=%d: kept %v, want %v", trial, k, got, want)
		}
		for i := range res {
			if math.Float64bits(res[i]) != math.Float64bits(wantRes[i]) {
				t.Fatalf("trial %d: residual[%d] = %g, want %g (bitwise)", trial, i, res[i], wantRes[i])
			}
		}
	}
}

// ---------------------------------------------------------------------
// Multi-rank reference aggregates.

// refMergePairs mirrors mergePairs on (idx, val) structs — separate code
// computing the same fixed left+right association.
func refMergePairs(a, b []float64) []float64 {
	var out []float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i], a[i+1])
			i += 2
		case a[i] > b[j]:
			out = append(out, b[j], b[j+1])
			j += 2
		default:
			out = append(out, a[i], a[i+1]+b[j+1])
			i += 2
			j += 2
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// TestTopKMultiRankMatchesReference replays the codec's whole pipeline
// in independent code — fold, sort-reference selection, binomial-tree
// pair merge in the same fixed order, root re-sparsification with
// residual feedback — and requires the codec to match it bitwise on
// every rank, for power-of-two and ragged group sizes.
func TestTopKMultiRankMatchesReference(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		const n = 101
		const ratio = 0.1
		k := SparsityK(ratio, n)
		rng := rand.New(rand.NewSource(int64(100 + p)))
		segs := make([][]float64, p)
		ress := make([][]float64, p)
		wantRes := make([][]float64, p)
		enc := make([][]float64, p)
		for r := 0; r < p; r++ {
			segs[r] = make([]float64, n)
			ress[r] = make([]float64, n)
			for i := range segs[r] {
				segs[r][i] = rng.NormFloat64()
				ress[r][i] = rng.NormFloat64() * 0.01
			}
			// Reference: fold, select with the sort reference, split.
			folded := make([]float64, n)
			for i := range folded {
				folded[i] = segs[r][i] + ress[r][i]
			}
			wantRes[r] = append([]float64(nil), folded...)
			for _, j := range refSelect(folded, k) {
				enc[r] = append(enc[r], float64(j), folded[j])
				wantRes[r][j] = 0
			}
		}
		// Reference tree merge: the same (accumulated, incoming) association
		// order the codec's binomial walk uses.
		acc := make([][]float64, p)
		for r := range acc {
			acc[r] = enc[r]
		}
		for step := 1; step < p; step <<= 1 {
			for r := 0; r < p; r += 2 * step {
				if r+step < p {
					acc[r] = refMergePairs(acc[r], acc[r+step])
				}
			}
		}
		agg := acc[0]
		if len(agg) > 2*k {
			// Root re-sparsification reference: keep the k largest-magnitude
			// aggregate pairs, fold the dropped ones into rank 0's residual.
			vals := make([]float64, len(agg)/2)
			for i := range vals {
				vals[i] = agg[2*i+1]
			}
			var kept []float64
			for _, pi := range refSelect(vals, k) {
				kept = append(kept, agg[2*pi], agg[2*pi+1])
			}
			keep := make(map[int]bool, k)
			for i := 0; i < len(kept); i += 2 {
				keep[int(kept[i])] = true
			}
			for i := 0; i < len(agg); i += 2 {
				if !keep[int(agg[i])] {
					wantRes[0][int(agg[i])] += agg[i+1]
				}
			}
			agg = kept
		}
		wantSeg := make([]float64, n)
		for i := 0; i < len(agg); i += 2 {
			wantSeg[int(agg[i])] = agg[i+1]
		}

		g := NewGroup(p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				NewCompressor("topk").Allreduce(g, r, segs[r], ress[r], ratio, 0, nil, 0)
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if segs[r][i] != wantSeg[i] {
					t.Fatalf("p=%d rank %d: aggregate coord %d = %g, want %g (bitwise)", p, r, i, segs[r][i], wantSeg[i])
				}
				if ress[r][i] != wantRes[r][i] {
					t.Fatalf("p=%d rank %d: residual coord %d = %g, want %g (bitwise)", p, r, i, ress[r][i], wantRes[r][i])
				}
			}
		}
	}
}

// TestQInt8MultiRankExactAggregate replays qint8 independently: shared
// scale from the global absmax of the folded values, per-rank rounding,
// exact integer sums. Every rank must hold (Σ q)·s bitwise, and every
// residual must reconstruct its folded value bitwise (the Sterbenz
// property the codec's error feedback relies on).
func TestQInt8MultiRankExactAggregate(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		const n = 77
		rng := rand.New(rand.NewSource(int64(200 + p)))
		segs := make([][]float64, p)
		ress := make([][]float64, p)
		folded := make([][]float64, p)
		gmax := 0.0
		for r := 0; r < p; r++ {
			segs[r] = make([]float64, n)
			ress[r] = make([]float64, n)
			folded[r] = make([]float64, n)
			for i := range segs[r] {
				segs[r][i] = rng.NormFloat64()
				ress[r][i] = rng.NormFloat64() * 0.001
				folded[r][i] = segs[r][i] + ress[r][i]
				if a := math.Abs(folded[r][i]); a > gmax {
					gmax = a
				}
			}
		}
		scale := gmax / 127
		qsum := make([]int32, n)
		wantRes := make([][]float64, p)
		for r := 0; r < p; r++ {
			wantRes[r] = make([]float64, n)
			for i, v := range folded[r] {
				qv := int32(math.Round(v / scale))
				if qv > 127 {
					qv = 127
				} else if qv < -127 {
					qv = -127
				}
				qsum[i] += qv
				wantRes[r][i] = v - float64(qv)*scale
			}
		}

		g := NewGroup(p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				NewCompressor("qint8").Allreduce(g, r, segs[r], ress[r], 0, 0, nil, 0)
			}(r)
		}
		wg.Wait()
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if want := float64(qsum[i]) * scale; segs[r][i] != want {
					t.Fatalf("p=%d rank %d: aggregate coord %d = %g, want %g (bitwise)", p, r, i, segs[r][i], want)
				}
				if ress[r][i] != wantRes[r][i] {
					t.Fatalf("p=%d rank %d: residual coord %d = %g, want %g (bitwise)", p, r, i, ress[r][i], wantRes[r][i])
				}
			}
			// Sterbenz: each rank's transmitted value plus its residual
			// reconstructs the folded value bitwise.
			for i := 0; i < n; i++ {
				qv := int32(math.Round(folded[r][i] / scale))
				if qv > 127 {
					qv = 127
				} else if qv < -127 {
					qv = -127
				}
				if got := float64(qv)*scale + ress[r][i]; got != folded[r][i] {
					t.Fatalf("p=%d rank %d coord %d: transmitted %g + residual %g != folded %g",
						p, r, i, float64(qv)*scale, ress[r][i], folded[r][i])
				}
			}
		}
	}
}

// TestQInt8ZeroBucket: an all-zero bucket on every rank must agree on a
// zero aggregate without dividing by a zero scale.
func TestQInt8ZeroBucket(t *testing.T) {
	const p, n = 3, 16
	g := NewGroup(p)
	var wg sync.WaitGroup
	segs := make([][]float64, p)
	for r := 0; r < p; r++ {
		segs[r] = make([]float64, n)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			NewCompressor("qint8").Allreduce(g, r, segs[r], make([]float64, n), 0, 0, nil, 0)
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		for i, v := range segs[r] {
			if v != 0 {
				t.Fatalf("rank %d coord %d: %g, want 0", r, i, v)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Wire volume.

// runCodecRound drives one compressed allreduce on every rank of a fresh
// group and returns the words it put on the wire.
func runCodecRound(p int, codec string, segs, ress [][]float64, ratio float64) int64 {
	g := NewGroup(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			NewCompressor(codec).Allreduce(g, r, segs[r], ress[r], ratio, 0, nil, 0)
		}(r)
	}
	wg.Wait()
	return g.WordsSent()
}

// TestTopKWireVolume pins the ≥5× reduction at k = 5%, p = 8 in the
// adversarial case — fully disjoint supports, where the merged aggregate
// is 8× wider than k and only the root's re-sparsification keeps the
// broadcast narrow. The reduce leg's messages are bounded by each
// subtree's union (≤ 2k·leaves words) and the broadcast leg by the
// re-sparsified 2k, so the total is capped well below dense's 2(p−1)n.
func TestTopKWireVolume(t *testing.T) {
	const p, n = 8, 4000
	const ratio = 0.05
	k := SparsityK(ratio, n)
	segs := make([][]float64, p)
	ress := make([][]float64, p)
	for r := 0; r < p; r++ {
		segs[r] = make([]float64, n)
		ress[r] = make([]float64, n)
		// Rank r's large entries live in its own n/p-wide stripe, so the
		// selections are pairwise disjoint.
		for i := 0; i < k; i++ {
			segs[r][r*(n/p)+i] = 10 + float64(i)
		}
		for i := range segs[r] {
			if segs[r][i] == 0 {
				segs[r][i] = 1e-6
			}
		}
	}
	sparse := runCodecRound(p, "topk", segs, ress, ratio)

	// Dense baseline: the same group shape moving the full buffer.
	g := NewGroup(p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]float64, n)
			g.AllreduceTree(r, buf)
		}(r)
	}
	wg.Wait()
	dense := g.WordsSent()

	if sparse*5 > dense {
		t.Fatalf("topk k=5%% moved %d words, dense %d: reduction %.2f× < 5×", sparse, dense, float64(dense)/float64(sparse))
	}
	// Structural cap: reduce ≤ Σ 2k·min(step, p−r) + broadcast ≤ (p−1)·2k.
	capWords := int64(0)
	for r := 1; r < p; r++ {
		step := r & -r
		capWords += int64(2 * k * min(step, p-r))
	}
	capWords += int64((p - 1) * 2 * k)
	if sparse > capWords {
		t.Errorf("topk moved %d words, above the structural cap %d", sparse, capWords)
	}
}

// TestQInt8WireVolumeExact pins the quantized wire volume to the word:
// every reduce message is ⌈n/8⌉ (int8 leaf) or ⌈n/4⌉ (int16 partial
// sum), every broadcast message ⌈n/4⌉, plus one word each way for the
// scale agreement — no headers, no padding beyond the last word's lanes.
func TestQInt8WireVolumeExact(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		const n = 1001
		rng := rand.New(rand.NewSource(int64(p)))
		segs := make([][]float64, p)
		ress := make([][]float64, p)
		for r := 0; r < p; r++ {
			segs[r] = make([]float64, n)
			ress[r] = make([]float64, n)
			for i := range segs[r] {
				segs[r][i] = rng.NormFloat64()
			}
		}
		got := runCodecRound(p, "qint8", segs, ress, 0)
		want := int64(0)
		for r := 1; r < p; r++ {
			step := r & -r                               // the tree step at which rank r sends
			want += int64(quantWords(n, min(step, p-r))) // packed contribution
			want += 1                                    // scale reduce
		}
		want += int64((p - 1) * (quantWords(n, p) + 1)) // broadcasts
		if got != want {
			t.Fatalf("p=%d: qint8 moved %d words, want exactly %d", p, got, want)
		}
		// The headline ratio: ~4× against the dense 2(p−1)n tree.
		denseWords := int64(2 * (p - 1) * n)
		if got*3 > denseWords {
			t.Errorf("p=%d: qint8 reduction only %.2f×, want > 3×", p, float64(denseWords)/float64(got))
		}
	}
}

// TestCompressedTrafficLabels: codec traffic lands under its own stats
// label ("sparse" for topk pairs, "quant" for packed integers), so the
// unified comm stats attribute compression wins to the right algorithm.
func TestCompressedTrafficLabels(t *testing.T) {
	const p, n = 4, 64
	for codec, label := range map[string]string{"topk": "sparse", "qint8": "quant"} {
		g := NewGroup(p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				seg := make([]float64, n)
				for i := range seg {
					seg[i] = float64(r*n + i + 1)
				}
				NewCompressor(codec).Allreduce(g, r, seg, make([]float64, n), 0.25, 0, nil, 0)
			}(r)
		}
		wg.Wait()
		st := g.Stats()
		if st.PerAlgo[label].Words == 0 {
			t.Errorf("%s: no traffic under label %q: %+v", codec, label, st.PerAlgo)
		}
		if st.PerAlgo[label].Words != st.Words {
			t.Errorf("%s: %d of %d words under label %q, want all", codec, st.PerAlgo[label].Words, st.Words, label)
		}
	}
}

// ---------------------------------------------------------------------
// Bucketed composition.

// TestBucketedCompressedMatchesSync: BeginCompressed through the async
// comm worker must produce bitwise the same aggregates and residuals as
// driving the codec synchronously bucket by bucket — the property that
// lets the serial compressed schedule and the resilient path share the
// engine with the overlap path.
func TestBucketedCompressedMatchesSync(t *testing.T) {
	for _, codec := range []string{"topk", "qint8"} {
		const p, n = 4, 300
		const ratio = 0.1
		segments := []Segment{{0, 120}, {120, 80}, {200, 100}}
		rng := rand.New(rand.NewSource(31))
		bufA := make([][]float64, p)
		resA := make([][]float64, p)
		bufB := make([][]float64, p)
		resB := make([][]float64, p)
		for r := 0; r < p; r++ {
			bufA[r] = make([]float64, n)
			resA[r] = make([]float64, n)
			for i := range bufA[r] {
				bufA[r][i] = rng.NormFloat64()
			}
			bufB[r] = append([]float64(nil), bufA[r]...)
			resB[r] = make([]float64, n)
		}

		// Async: bucketed workers, buckets launched in descending order.
		gA := NewGroup(p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				b := NewBucketedAllreduce(gA, r, segments, 0)
				comp := NewCompressor(codec)
				handles := make([]Handle, len(segments))
				for round := 0; round < 3; round++ {
					for bi := len(segments) - 1; bi >= 0; bi-- {
						handles[bi] = b.BeginCompressed(bi, bufA[r], resA[r], comp, ratio, 0)
					}
					for bi := range handles {
						handles[bi].Wait()
					}
				}
				b.Close()
			}(r)
		}
		wg.Wait()

		// Sync: the same codec collectives, driven inline.
		gB := NewGroup(p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				comp := NewCompressor(codec)
				for round := 0; round < 3; round++ {
					for bi := len(segments) - 1; bi >= 0; bi-- {
						s := segments[bi]
						comp.Allreduce(gB, r, bufB[r][s.Off:s.Off+s.Len], resB[r][s.Off:s.Off+s.Len], ratio, 0, nil, int32(bi))
					}
				}
			}(r)
		}
		wg.Wait()

		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if bufA[r][i] != bufB[r][i] {
					t.Fatalf("%s rank %d: async aggregate differs from sync at %d: %g vs %g", codec, r, i, bufA[r][i], bufB[r][i])
				}
				if resA[r][i] != resB[r][i] {
					t.Fatalf("%s rank %d: async residual differs from sync at %d: %g vs %g", codec, r, i, resA[r][i], resB[r][i])
				}
			}
		}
		if wA, wB := gA.WordsSent(), gB.WordsSent(); wA != wB {
			t.Errorf("%s: async moved %d words, sync %d", codec, wA, wB)
		}
	}
}

// TestNewCompressor covers the constructor's corners.
func TestNewCompressor(t *testing.T) {
	if NewCompressor("") != nil || NewCompressor("none") != nil {
		t.Error("dense names must return nil")
	}
	if NewCompressor("topk").Name() != "topk" || NewCompressor("qint8").Name() != "qint8" {
		t.Error("codec names")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown codec must panic")
		}
	}()
	NewCompressor("gzip")
}
