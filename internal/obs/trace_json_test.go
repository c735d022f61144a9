package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// buildGoldenTracer records a small deterministic trace on a fake
// clock: one learner whose backward span encloses two compress spans
// carrying a bucket index (nested spans with an argument), and a comm
// worker running queue_dwell → allreduce for each bucket while the
// learner is still inside backward (async dwell events beside
// duration events).
func buildGoldenTracer() *Tracer {
	tr := NewTracer(64)
	t := int64(0)
	tr.nowFn = func() int64 { return t }
	learner := tr.Learner(0)
	worker := tr.CommWorker(0)

	at := func(ns int64) { t = ns }

	at(0)
	s := learner.Begin()
	at(100)
	learner.End(PhaseForward, s)

	// backward [100, 1000] with compress spans [200,250] and [500,560].
	at(100)
	back := learner.Begin()
	at(200)
	b0 := learner.Begin()
	at(250)
	learner.EndArg(PhaseCompress, 1, b0)
	at(500)
	b1 := learner.Begin()
	at(560)
	learner.EndArg(PhaseCompress, 0, b1)
	at(1000)
	learner.End(PhaseBackward, back)

	// comm worker: bucket 1 dwells [250, 300], runs [300, 700]; bucket 0
	// dwells [560, 700], runs [700, 1100] — overlapping backward.
	worker.Span(PhaseQueueDwell, 1, 250, 300)
	worker.Span(PhaseAllreduce, 1, 300, 700)
	worker.Span(PhaseQueueDwell, 0, 560, 700)
	worker.Span(PhaseAllreduce, 0, 700, 1100)

	// learner waits for the interval's buckets, then applies.
	at(1000)
	w := learner.Begin()
	at(1100)
	learner.End(PhaseAggWait, w)
	a := learner.Begin()
	at(1150)
	learner.End(PhaseAggApply, a)
	return tr
}

// TestTraceGolden pins the exported Chrome-trace JSON byte for byte.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/obs -run TraceGolden.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenTracer().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_trace.json")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTraceSchemaValid validates the golden trace's structure: parseable
// JSON, only known event kinds, matched begin/end pairs, per-track
// monotonic timestamps.
func TestTraceSchemaValid(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenTracer().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// 6 learner spans + 4 comm-worker spans.
	if spans != 10 {
		t.Errorf("validated %d spans, want 10", spans)
	}
}

func TestValidateTraceRejectsCorruptTraces(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [`,
		"no events array": `{"displayTimeUnit":"ms"}`,
		"unknown ph":      `{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":0,"ts":1}]}`,
		"unmatched E":     `{"traceEvents":[{"name":"x","ph":"E","pid":1,"tid":0,"ts":1}]}`,
		"unclosed B":      `{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":1}]}`,
		"name mismatch": `{"traceEvents":[
			{"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
			{"name":"b","ph":"E","pid":1,"tid":0,"ts":2}]}`,
		"time reversal": `{"traceEvents":[
			{"name":"a","ph":"B","pid":1,"tid":0,"ts":5},
			{"name":"a","ph":"E","pid":1,"tid":0,"ts":1}]}`,
		"async without id": `{"traceEvents":[{"name":"q","ph":"b","pid":2,"tid":0,"ts":1}]}`,
		"async unmatched e": `{"traceEvents":[
			{"name":"q","cat":"queue","ph":"e","pid":2,"tid":0,"id":"0.1","ts":1}]}`,
		"async reopened": `{"traceEvents":[
			{"name":"q","cat":"queue","ph":"b","pid":2,"tid":0,"id":"0.1","ts":1},
			{"name":"q","cat":"queue","ph":"b","pid":2,"tid":0,"id":"0.1","ts":2}]}`,
		"async unclosed": `{"traceEvents":[
			{"name":"q","cat":"queue","ph":"b","pid":2,"tid":0,"id":"0.1","ts":1}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("%s: ValidateTrace accepted a corrupt trace", name)
		}
	}
	// Async dwell intervals legally overlap duration events on the same
	// timeline (that is why they are async): B allreduce, b dwell for the
	// next bucket, E allreduce, e dwell.
	okAsync := `{"traceEvents":[
		{"name":"allreduce","ph":"B","pid":2,"tid":0,"ts":1},
		{"name":"queue_dwell","cat":"queue","ph":"b","pid":2,"tid":0,"id":"0.1","ts":2},
		{"name":"allreduce","ph":"E","pid":2,"tid":0,"ts":3},
		{"name":"queue_dwell","cat":"queue","ph":"e","pid":2,"tid":0,"id":"0.1","ts":4}]}`
	if spans, err := ValidateTrace([]byte(okAsync)); err != nil || spans != 2 {
		t.Errorf("overlapping async dwell rejected: spans=%d err=%v", spans, err)
	}
	// Interleaving across tracks is legal: only same-track pairs nest.
	ok := `{"traceEvents":[
		{"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
		{"name":"b","ph":"B","pid":2,"tid":0,"ts":2},
		{"name":"a","ph":"E","pid":1,"tid":0,"ts":3},
		{"name":"b","ph":"E","pid":2,"tid":0,"ts":4}]}`
	if spans, err := ValidateTrace([]byte(ok)); err != nil || spans != 2 {
		t.Errorf("cross-track interleaving rejected: spans=%d err=%v", spans, err)
	}
}
