package obs

import (
	"testing"
	"time"
)

// fakeClock returns a nowFn handing out strictly increasing timestamps
// in steps of the given nanoseconds.
func fakeClock(step int64) func() int64 {
	t := int64(0)
	return func() int64 {
		t += step
		return t
	}
}

func newTestTracer(capSpans int, step int64) *Tracer {
	tr := NewTracer(capSpans)
	tr.nowFn = fakeClock(step)
	return tr
}

func TestNilTrackIsSafeAndFree(t *testing.T) {
	var tk *Track // the disabled path: no tracer anywhere
	s := tk.Begin()
	tk.End(PhaseForward, s)
	tk.EndArg(PhaseAllreduce, 3, s)
	tk.Span(PhaseQueueDwell, NoArg, 0, 0)
	if tk.Now() != 0 || tk.PhaseNs(PhaseForward) != 0 || tk.Len() != 0 || tk.Cap() != 0 || tk.Dropped() != 0 {
		t.Error("nil track reported non-zero state")
	}
	var tr *Tracer
	if tr.Learner(0) != nil || tr.CommWorker(1) != nil || tr.Tracks() != nil {
		t.Error("nil tracer handed out a non-nil track")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := tk.Begin()
		tk.End(PhaseForward, s)
	}); allocs != 0 {
		t.Errorf("disabled Begin/End allocated %.1f per op, want 0", allocs)
	}
}

func TestEnabledRecordIsAllocFree(t *testing.T) {
	tr := newTestTracer(64, 10)
	tk := tr.Learner(0)
	if allocs := testing.AllocsPerRun(100, func() {
		s := tk.Begin()
		tk.End(PhaseForward, s)
	}); allocs != 0 {
		t.Errorf("enabled Begin/End allocated %.1f per op, want 0", allocs)
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	tr := newTestTracer(4, 10)
	tk := tr.Learner(0)
	for i := 0; i < 10; i++ {
		s := tk.Begin()
		tk.EndArg(PhaseForward, int32(i), s)
	}
	if tk.Len() != 10 || tk.Cap() != 4 || tk.Dropped() != 6 {
		t.Fatalf("Len/Cap/Dropped = %d/%d/%d, want 10/4/6", tk.Len(), tk.Cap(), tk.Dropped())
	}
	got := tk.retained()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := int32(6 + i); s.arg != want {
			t.Errorf("retained[%d].arg = %d, want %d (oldest-first order)", i, s.arg, want)
		}
	}
}

func TestTrackStampsMonotonic(t *testing.T) {
	tr := NewTracer(16) // real clock
	tk := tr.Learner(0)
	s := tk.Begin()
	time.Sleep(time.Millisecond)
	tk.End(PhaseForward, s)
	sp := tk.retained()[0]
	if sp.dur <= 0 {
		t.Errorf("span duration = %dns, want > 0", sp.dur)
	}
}

// PhaseNs sums the spans of one phase on one track, whatever else the
// track records.
func TestPhaseNsSumsSpans(t *testing.T) {
	tr := newTestTracer(16, 10)
	tk := tr.Learner(2)
	for i := 0; i < 3; i++ {
		tk.End(PhaseBackward, tk.Begin())
	}
	tk.End(PhaseForward, tk.Begin())
	// Each fake-clock span lasts exactly one step (10ns).
	if tk.Len() != 4 || tk.PhaseNs(PhaseBackward) != 30 || tk.PhaseNs(PhaseForward) != 10 {
		t.Errorf("Len/PhaseNs backward/forward = %d/%d/%d, want 4/30/10",
			tk.Len(), tk.PhaseNs(PhaseBackward), tk.PhaseNs(PhaseForward))
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		name := ph.String()
		if name == "" || name == "unknown" {
			t.Errorf("phase %d has no name", ph)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase should stringify as unknown")
	}
}
