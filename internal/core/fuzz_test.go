package core

import (
	"math/rand"
	"testing"

	"sasgd/internal/nn"
)

// FuzzPlanBuckets pins the bucket planner's invariants over
// fuzzer-chosen layer layouts: whatever the segment sizes and requested
// bucket count, the buckets must partition the flat parameter buffer
// exactly once (contiguous, back-to-back, aligned to segment
// boundaries), every bucket must carry the gating layer of its first
// segment, and the plan must be a pure function of its inputs (every
// rank computes it independently; divergent plans would deadlock the
// collective). This is the package's only fuzz target, so `go test
// -fuzz=.` works here; packages with several (comm, comm/wire) need the
// target named, as scripts/check.sh does.
func FuzzPlanBuckets(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(1))
	f.Add(uint8(4), uint8(2), int64(3))
	f.Add(uint8(7), uint8(0), int64(5))   // n ≤ 0: one bucket per layer
	f.Add(uint8(3), uint8(11), int64(7))  // n > layers: one bucket per layer
	f.Add(uint8(12), uint8(5), int64(11)) // many small layers, few buckets
	f.Fuzz(func(t *testing.T, nSegsRaw, nRaw uint8, seed int64) {
		nSegs := int(nSegsRaw)%12 + 1
		n := int(nRaw)%15 - 1 // -1..13: covers ≤0, in-range and > nSegs

		rng := rand.New(rand.NewSource(seed))
		psegs := make([]nn.ParamSegment, nSegs)
		off := 0
		for i := range psegs {
			sz := 1 + rng.Intn(64)
			psegs[i] = nn.ParamSegment{Layer: i * 2, Off: off, Len: sz}
			off += sz
		}
		total := off

		segs, minLayer := planBuckets(psegs, n)

		want := n
		if n <= 0 || n > nSegs {
			want = nSegs
		}
		if len(segs) != want || len(minLayer) != want {
			t.Fatalf("nSegs=%d n=%d: got %d buckets / %d minLayers, want %d",
				nSegs, n, len(segs), len(minLayer), want)
		}
		// Exactly-once coverage: contiguous from 0 to total, every bucket
		// boundary on a segment boundary, gating layer = first segment's.
		starts := make(map[int]int, nSegs) // segment Off → index
		for i, s := range psegs {
			starts[s.Off] = i
		}
		next := 0
		for b, s := range segs {
			if s.Off != next {
				t.Fatalf("bucket %d starts at %d, want %d (gap or overlap)", b, s.Off, next)
			}
			if s.Len <= 0 {
				t.Fatalf("bucket %d empty (len %d)", b, s.Len)
			}
			si, ok := starts[s.Off]
			if !ok {
				t.Fatalf("bucket %d start %d is not a segment boundary", b, s.Off)
			}
			if minLayer[b] != psegs[si].Layer {
				t.Fatalf("bucket %d gating layer %d, want first segment's %d", b, minLayer[b], psegs[si].Layer)
			}
			next = s.Off + s.Len
			if _, ok := starts[next]; !ok && next != total {
				t.Fatalf("bucket %d ends at %d, not a segment boundary", b, next)
			}
		}
		if next != total {
			t.Fatalf("buckets cover [0,%d), want [0,%d)", next, total)
		}
		// Purity: recomputing the plan must reproduce it exactly.
		segs2, minLayer2 := planBuckets(psegs, n)
		for b := range segs {
			if segs2[b] != segs[b] || minLayer2[b] != minLayer[b] {
				t.Fatalf("plan not deterministic at bucket %d", b)
			}
		}
	})
}
