package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace-event export. The JSON-object format ("traceEvents" plus
// metadata) loads in Perfetto (ui.perfetto.dev) and chrome://tracing:
// each Track becomes one thread timeline inside its process group, so a
// traced delayed run shows the comm-worker tracks' allreduce spans
// running while the learner tracks are already in the next interval's
// compute.
//
// Most spans are emitted as matched "B"/"E" duration events rather than
// "X" complete events so nesting is explicit in the file and the golden
// schema test can verify begin/end pairing directly. Duration events on
// one track must be sequential or strictly nested; the emission order
// reconstructs that from timestamps (see evLess).
//
// Queue dwell is the exception: it opens at the learner's launch stamp,
// not on the comm track's own goroutine, so it is not part of that
// track's synchronous B/E stack. Dwell spans are emitted as legacy async
// events ("b"/"e" with a per-(track, arg) id), which Perfetto renders as
// async lanes under the comm process.

// asyncPhase reports whether the phase's spans may overlap other spans
// on the same track and must therefore export as async events.
func asyncPhase(p Phase) bool { return p == PhaseQueueDwell }

// asyncCat is the category grouping the async lanes in Perfetto.
const asyncCat = "queue"

// traceEvent is one exported trace-event record.
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	ID   string                 `json:"id,omitempty"`
	Ts   float64                `json:"ts,omitempty"` // microseconds
	Args map[string]interface{} `json:"args,omitempty"`
}

// traceFile is the exported JSON object.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// event is the pre-serialization form carrying the sort keys.
type event struct {
	ts    int64 // ns
	begin bool
	async bool
	// start/end of the owning span, for nesting-correct tie-breaks.
	spanStart, spanEnd int64
	seq                int // span record order, pairs zero-length ties
	phase              Phase
	arg                int32
	pid, tid           int
}

// evLess orders one track's events for emission. Primary key is the
// timestamp; ties are broken so that the B/E stack stays well formed:
// ends of spans that started earlier come first (inner spans closing
// before outer ones), then zero-length spans as adjacent B,E pairs in
// record order, then begins of spans extending past the instant (outer,
// longer spans opening first).
func evLess(a, b event) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	ra, rb := a.tieRank(), b.tieRank()
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case 0: // two ends: the inner (later-started) span closes first
		return a.spanStart > b.spanStart
	case 2: // two begins: the enclosing (longer) span opens first
		return a.spanEnd > b.spanEnd
	default: // zero-length spans: record order, each B just before its E
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.begin
	}
}

func (e event) tieRank() int {
	if e.spanStart == e.spanEnd {
		return 1
	}
	if e.begin {
		return 2
	}
	return 0
}

// WriteTrace serializes every track's retained spans as Chrome
// trace-event JSON. It must be called after the recording goroutines
// have quiesced (end of run).
func (tr *Tracer) WriteTrace(w io.Writer) error {
	if tr == nil {
		return fmt.Errorf("obs: WriteTrace on nil tracer")
	}
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}

	// Metadata: name the process groups and threads, once each.
	seenProc := map[int]bool{}
	tracks := tr.Tracks()
	for _, t := range tracks {
		if !seenProc[t.pid] {
			seenProc[t.pid] = true
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "process_name", Ph: "M", Pid: t.pid,
				Args: map[string]interface{}{"name": t.process},
			})
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: t.pid, Tid: t.tid,
			Args: map[string]interface{}{"name": t.name},
		})
	}

	for _, t := range tracks {
		spans := t.retained()
		evs := make([]event, 0, 2*len(spans))
		for seq, s := range spans {
			end := s.start + s.dur
			async := asyncPhase(s.phase)
			evs = append(evs,
				event{ts: s.start, begin: true, async: async, spanStart: s.start,
					spanEnd: end, seq: seq, phase: s.phase, arg: s.arg, pid: t.pid, tid: t.tid},
				event{ts: end, begin: false, async: async, spanStart: s.start,
					spanEnd: end, seq: seq, phase: s.phase, arg: s.arg, pid: t.pid, tid: t.tid})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evLess(evs[i], evs[j]) })
		for _, e := range evs {
			te := traceEvent{
				Name: e.phase.String(),
				Ph:   "B",
				Pid:  e.pid,
				Tid:  e.tid,
				Ts:   float64(e.ts) / 1e3,
			}
			if !e.begin {
				te.Ph = "E"
			}
			if e.async {
				te.Cat = asyncCat
				te.ID = fmt.Sprintf("%d.%d", e.tid, e.arg)
				if e.begin {
					te.Ph = "b"
				} else {
					te.Ph = "e"
				}
			}
			if e.begin && e.arg != NoArg {
				te.Args = map[string]interface{}{"bucket": e.arg}
			}
			f.TraceEvents = append(f.TraceEvents, te)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&f)
}

// WriteTraceFile writes the trace to the given path.
func (tr *Tracer) WriteTraceFile(path string) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(fd); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}

// ValidateTrace checks an exported trace for the invariants the tooling
// relies on: the file is a JSON object with a traceEvents array; every
// event carries a known phase kind; on every (pid, tid) timeline the
// duration events form properly nested, matched begin/end pairs with
// non-decreasing timestamps; and async events form matched begin/end
// pairs per (pid, id, name) with no double-open. It returns the number
// of matched spans on success.
func ValidateTrace(data []byte) (spans int, err error) {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace has no traceEvents array")
	}
	type key struct{ pid, tid int }
	type akey struct {
		pid      int
		id, name string
	}
	stacks := map[key][]traceEvent{}
	lastTs := map[key]float64{}
	open := map[akey]bool{}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "B", "E", "b", "e":
		default:
			return 0, fmt.Errorf("obs: event %d has unsupported ph %q", i, e.Ph)
		}
		k := key{e.Pid, e.Tid}
		if e.Ts < lastTs[k] {
			return 0, fmt.Errorf("obs: event %d (%s %s) goes backwards in time on pid %d tid %d",
				i, e.Ph, e.Name, e.Pid, e.Tid)
		}
		lastTs[k] = e.Ts
		switch e.Ph {
		case "b", "e":
			if e.ID == "" {
				return 0, fmt.Errorf("obs: event %d: async %s %q has no id", i, e.Ph, e.Name)
			}
			ak := akey{e.Pid, e.ID, e.Name}
			if e.Ph == "b" {
				if open[ak] {
					return 0, fmt.Errorf("obs: event %d: async b %q id %s reopened while open on pid %d",
						i, e.Name, e.ID, e.Pid)
				}
				open[ak] = true
				continue
			}
			if !open[ak] {
				return 0, fmt.Errorf("obs: event %d: async e %q id %s without matching b on pid %d",
					i, e.Name, e.ID, e.Pid)
			}
			delete(open, ak)
			spans++
		case "B":
			stacks[k] = append(stacks[k], e)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return 0, fmt.Errorf("obs: event %d: E %q without matching B on pid %d tid %d",
					i, e.Name, e.Pid, e.Tid)
			}
			top := st[len(st)-1]
			if top.Name != e.Name {
				return 0, fmt.Errorf("obs: event %d: E %q closes B %q on pid %d tid %d",
					i, e.Name, top.Name, e.Pid, e.Tid)
			}
			stacks[k] = st[:len(st)-1]
			spans++
		}
	}
	for k, st := range stacks {
		if len(st) != 0 {
			return 0, fmt.Errorf("obs: %d unclosed B events on pid %d tid %d (first %q)",
				len(st), k.pid, k.tid, st[0].Name)
		}
	}
	for ak := range open {
		return 0, fmt.Errorf("obs: unclosed async b %q id %s on pid %d", ak.name, ak.id, ak.pid)
	}
	return spans, nil
}
