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
// must agree as well.
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
			dense[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			hasNaN = hasNaN || math.IsNaN(dense[i])
		}
		k := int(kRaw)%n + 1
		got := selectIdx(&s, dense, k, nil)

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
			t.Fatalf("k=%d: selected %v, bit-pattern sort keeps %v of %v", k, got, want, dense)
		}
		if !hasNaN {
			if ref := refSelect(dense, k); !slices.Equal(got, ref) {
				t.Fatalf("k=%d: selected %v, magnitude sort keeps %v of %v", k, got, ref, dense)
			}
		}
	})
}

// FuzzAllreduceEquivalence pins the allreduce implementations against
// each other over fuzzer-chosen (p, m, chunk, seed) shapes: the chunked
// pipelined tree must reproduce the monolithic tree bit for bit at any
// chunk size.
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

		ptree := cloneBufs(orig)
		gp := NewGroup(p)
		runGroup(p, gp, func(rank int) { gp.AllreduceTreeChunked(rank, ptree[rank], chunk) })

		for r := 0; r < p; r++ {
			for i := 0; i < m; i++ {
				if ptree[r][i] != tree[r][i] {
					t.Fatalf("p=%d m=%d chunk=%d rank=%d[%d]: ptree %g != tree %g (must be bitwise)",
						p, m, chunk, r, i, ptree[r][i], tree[r][i])
				}
				// Every rank of every algorithm must agree with rank 0 of
				// its own algorithm exactly — allreduce leaves identical
				// buffers everywhere.
				if tree[r][i] != tree[0][i] || ptree[r][i] != ptree[0][i] {
					t.Fatalf("p=%d m=%d rank=%d[%d]: ranks disagree within one algorithm", p, m, r, i)
				}
			}
		}
	})
}
