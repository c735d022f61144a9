package comm

import (
	"sync"
	"testing"

	"sasgd/internal/obs"
)

// TestPipelinedCollectivesStress drives many back-to-back aggregations
// through the tree in line and through Runners' in-flight launches under
// the race detector's favourite conditions: odd group sizes, launches
// that sum the buffer in pieces far below m/p (so pooled buffers are
// recycled across different message shapes), a learner that writes
// its own scratch while its launch is in flight, and several groups
// running concurrently in one process. Values are small integers, so
// every sum is exact in float64 and each round's result can be checked
// against a closed form: after k allreduce rounds buf[i] = (i+1)·p^k.
func TestPipelinedCollectivesStress(t *testing.T) {
	const rounds = 15
	run := func(t *testing.T, p int, widths []int) {
		const m = 101
		g := NewGroup(p)
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, m)
			for i := range bufs[r] {
				bufs[r][i] = float64(i + 1)
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				runners := make([]*Runner, len(widths))
				for i, w := range widths {
					spans := chunkSpans(m, w)
					runners[i] = NewRunner(g, r, func(buf []float64, _ float64, _ *obs.Track) {
						for j := len(spans) - 1; j >= 0; j-- {
							g.AllreduceTree(r, buf[spans[j].off:spans[j].off+spans[j].n])
						}
					})
					defer runners[i].Close()
				}
				scratch := make([]float64, m)
				for k := 0; k < rounds; k++ {
					if k%3 == 0 {
						g.AllreduceTree(r, bufs[r])
						continue
					}
					run := runners[k%len(widths)]
					run.Launch(bufs[r], 0)
					for i := range scratch {
						scratch[i] += float64(k)
					}
					run.Wait()
				}
			}(r)
		}
		wg.Wait()
		// (i+1)·p^rounds, exact: p ≤ 8, rounds = 15 ⇒ ≤ 102·8^15 < 2^53.
		scale := 1.0
		for k := 0; k < rounds; k++ {
			scale *= float64(p)
		}
		for r := 0; r < p; r++ {
			for i := 0; i < m; i++ {
				if want := float64(i+1) * scale; bufs[r][i] != want {
					t.Fatalf("p=%d rank=%d[%d] = %g, want %g", p, r, i, bufs[r][i], want)
				}
			}
		}
	}
	// Piece widths well below m/p make long launches; concurrent
	// subtests share the process so independent groups stress each other.
	for _, p := range []int{3, 5, 7, 8} {
		p := p
		t.Run("p"+string(rune('0'+p)), func(t *testing.T) {
			t.Parallel()
			run(t, p, []int{1, 3, 7})
		})
	}
}
