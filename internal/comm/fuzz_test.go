package comm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzTopKSelect: selection ≡ full sort on arbitrary bit patterns. The
// input's bytes are read as float64s — so NaNs of every payload,
// infinities, subnormals and both zeros turn up — and k comes from the
// input too. The oracle sorts (magnitude bit
// pattern descending, index ascending), which is the stated order with
// NaN above +Inf; where no NaN is present the float-comparing refSelect
// must agree as well. Each input is checked as it is and tiled to at
// least 2 048 values, where the sampled floor runs — and, when the tile
// aliases the sample's stride, falls back.
func FuzzTopKSelect(f *testing.F) {
	pack := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint16(0), pack(1))
	f.Add(uint16(1), pack(1, -1, 1, -1))
	f.Add(uint16(2), pack(0, math.Copysign(0, -1), 5e-324, -5e-324, 0))
	f.Add(uint16(1), pack(math.Inf(1), math.NaN(), -math.MaxFloat64, math.Inf(-1), 1e-300, 1e300))
	f.Add(uint16(3), pack(1, 1.0000000000000002, 1.0000000000000004, -1.0000000000000002, 1.015, 1))
	var s selector
	f.Fuzz(func(t *testing.T, kRaw uint16, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		dense := make([]float64, n)
		hasNaN := false
		for i := range dense {
			// The codec selects folded values, and the fold's addition
			// quiets a signalling NaN: so does the + 0 here.
			dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) + 0
			hasNaN = hasNaN || math.IsNaN(dense[i])
		}
		checkSelectBits(t, &s, dense, int(kRaw)%n+1, hasNaN)
		tiled := dense
		for len(tiled) < 2048 {
			tiled = append(tiled, dense...)
		}
		checkSelectBits(t, &s, tiled, int(kRaw)%len(tiled)+1, hasNaN)
	})
}

// checkSelectBits is FuzzTopKSelect's oracle on one input.
func checkSelectBits(t *testing.T, s *selector, dense []float64, k int, hasNaN bool) {
	t.Helper()
	n := len(dense)
	got := selectIdx(s, dense, k, nil)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Float64bits(dense[order[a]])<<1 > math.Float64bits(dense[order[b]])<<1
	})
	want := order[:k]
	sort.Ints(want)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d: selected %v, bit-pattern sort keeps %v of %v", n, k, got, want, dense)
	}
	if !hasNaN {
		if ref := refSelect(dense, k); !slices.Equal(got, ref) {
			t.Fatalf("n=%d k=%d: selected %v, magnitude sort keeps %v of %v", n, k, got, ref, dense)
		}
	}
}

// FuzzAllreduceEquivalence pins a buffer summed piecewise against the
// whole-buffer tree over fuzzer-chosen (p, m, chunk, seed) shapes: two
// pieces split at chunk (one piece when chunk ≥ m) must reproduce the
// tree bit for bit.
func FuzzAllreduceEquivalence(f *testing.F) {
	f.Add(uint8(1), uint16(1), uint16(1), int64(1))
	f.Add(uint8(2), uint16(5), uint16(2), int64(7))
	f.Add(uint8(3), uint16(23), uint16(7), int64(11))
	f.Add(uint8(4), uint16(64), uint16(16), int64(13))
	f.Add(uint8(5), uint16(129), uint16(3), int64(17))
	f.Add(uint8(8), uint16(100), uint16(33), int64(19))
	f.Fuzz(func(t *testing.T, pRaw uint8, mRaw, chunkRaw uint16, seed int64) {
		p := int(pRaw)%8 + 1
		m := int(mRaw)%256 + 1
		chunk := int(chunkRaw)%(m+2) + 1

		rng := rand.New(rand.NewSource(seed))
		orig := make([][]float64, p)
		for r := range orig {
			orig[r] = make([]float64, m)
			for i := range orig[r] {
				orig[r][i] = rng.NormFloat64()
			}
		}

		tree := cloneBufs(orig)
		gt := NewGroup(p)
		runGroup(p, gt, func(rank int) { gt.AllreduceTree(rank, tree[rank]) })

		spans := []span{{0, min(chunk, m)}}
		if chunk < m {
			spans = append(spans, span{chunk, m - chunk})
		}
		pieces := cloneBufs(orig)
		runSpans(p, NewGroup(p), pieces, spans)

		for r := 0; r < p; r++ {
			for i := 0; i < m; i++ {
				if pieces[r][i] != tree[r][i] {
					t.Fatalf("p=%d m=%d chunk=%d rank=%d[%d]: piecewise %g != tree %g (must be bitwise)",
						p, m, chunk, r, i, pieces[r][i], tree[r][i])
				}
				// Every rank of both must agree with its rank 0 exactly —
				// allreduce leaves identical buffers everywhere.
				if tree[r][i] != tree[0][i] || pieces[r][i] != pieces[0][i] {
					t.Fatalf("p=%d m=%d rank=%d[%d]: ranks disagree within one algorithm", p, m, r, i)
				}
			}
		}
	})
}
