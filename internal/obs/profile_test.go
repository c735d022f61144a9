package obs

import (
	"testing"
	"time"
)

func TestProfilePercentiles(t *testing.T) {
	tr := NewTracer(256)
	tn := int64(0)
	tr.nowFn = func() int64 { return tn }
	tk := tr.Learner(0)
	// 100 forward spans of durations 1..100 µs.
	for i := 1; i <= 100; i++ {
		tn = 0
		s := tk.Begin()
		tn = int64(i) * 1000
		tk.End(PhaseForward, s)
	}
	prof := tr.Profile()
	if len(prof) != 1 {
		t.Fatalf("profile has %d rows, want 1", len(prof))
	}
	p := prof[0]
	if p.Track != "learner 0" || p.Phase != PhaseForward || p.Count != 100 {
		t.Fatalf("unexpected row %+v", p)
	}
	if p.P50 != 50*time.Microsecond || p.P95 != 95*time.Microsecond || p.P99 != 99*time.Microsecond {
		t.Errorf("p50/p95/p99 = %v/%v/%v, want 50µs/95µs/99µs", p.P50, p.P95, p.P99)
	}
	if want := time.Duration(5050) * time.Microsecond; p.Total != want {
		t.Errorf("total = %v, want %v", p.Total, want)
	}
}

// TestSumsExactPastTheRing: a phase's count and total come from the
// live aggregates, so they stay exact after a 4-span ring has wrapped;
// the percentiles cover the retained spans and say so.
func TestSumsExactPastTheRing(t *testing.T) {
	tr := NewTracer(4)
	tn := int64(0)
	tr.nowFn = func() int64 { return tn }
	tk := tr.Learner(0)
	w := tr.CommWorker(0)
	for i := int64(1); i <= 10; i++ {
		tn = 0
		s := tk.Begin()
		tn = i * 1000
		tk.End(PhaseForward, s)
	}
	w.Span(PhaseAllreduce, 0, 0, 500)
	sums, learners := tr.Sums()
	if learners != 1 {
		t.Errorf("learners = %d, want 1 (the comm worker is not one)", learners)
	}
	f := sums[PhaseForward]
	if f.Count != 10 || f.Kept != 4 || f.Total != 55*time.Microsecond {
		t.Errorf("forward = %+v, want 10 spans, 4 kept, 55µs", f)
	}
	// The ring kept the last four: 7..10 µs.
	if f.P50 != 8*time.Microsecond || f.P99 != 10*time.Microsecond {
		t.Errorf("forward p50/p99 = %v/%v, want 8µs/10µs", f.P50, f.P99)
	}
	if a := sums[PhaseAllreduce]; a.Count != 1 || a.Kept != 1 || a.Total != 500 || a.P50 != 500 {
		t.Errorf("allreduce = %+v, want one whole 500ns span", a)
	}
}

func TestHiddenFraction(t *testing.T) {
	// Golden shape: forward [0,100], backward [100,1000]; allreduces
	// [300,700] (fully inside) and [700,1100] (300 of 400 inside).
	// Hidden = 400+300, total = 800.
	tr := buildGoldenTracer()
	hidden, total := tr.HiddenFraction()
	if total != 800 {
		t.Fatalf("total allreduce = %v, want 800ns", total)
	}
	if hidden != 700 {
		t.Errorf("hidden = %v, want 700ns", hidden)
	}
}

func TestHiddenFractionIgnoresOtherRanks(t *testing.T) {
	tr := NewTracer(16)
	tn := int64(0)
	tr.nowFn = func() int64 { return tn }
	l0 := tr.Learner(0)
	w1 := tr.CommWorker(1) // different rank: no learner-0 overlap credit
	tn = 0
	s := l0.Begin()
	tn = 1000
	l0.End(PhaseBackward, s)
	w1.Span(PhaseAllreduce, 0, 0, 500)
	hidden, total := tr.HiddenFraction()
	if total != 500 || hidden != 0 {
		t.Errorf("hidden/total = %v/%v, want 0/500 (rank mismatch)", hidden, total)
	}
}
