package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentTracksNeverCorrupt exercises the concurrency contract:
// many tracks written simultaneously by their owning goroutines, then a
// post-quiesce export. Run under
// -race in scripts/check.sh; the export must still validate with every
// span intact.
func TestConcurrentTracksNeverCorrupt(t *testing.T) {
	const p, spansEach = 8, 500
	tr := NewTracer(2 * spansEach)
	learners := make([]*Track, p)
	workers := make([]*Track, p)
	for r := 0; r < p; r++ {
		learners[r] = tr.Learner(r)
		workers[r] = tr.CommWorker(r)
	}

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(2)
		go func(tk *Track) {
			defer wg.Done()
			for i := 0; i < spansEach; i++ {
				s := tk.Begin()
				tk.End(PhaseForward, s)
			}
		}(learners[r])
		go func(tk *Track) {
			defer wg.Done()
			for i := 0; i < spansEach; i++ {
				s := tk.Begin()
				tk.EndArg(PhaseAllreduce, int32(i), s)
			}
		}(workers[r])
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("concurrently recorded trace is corrupt: %v", err)
	}
	if want := 2 * p * spansEach; spans != want {
		t.Errorf("trace has %d spans, want %d", spans, want)
	}
	for _, tk := range append(learners, workers...) {
		if tk.Len() != spansEach || tk.Dropped() != 0 {
			t.Errorf("track %s: len %d dropped %d, want %d/0", tk.name, tk.Len(), tk.Dropped(), spansEach)
		}
	}
}
