package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// Live debug endpoint (-debug-addr): a plain net/http server exposing
//
//	/debug/vars    — standard expvar (command line, memstats)
//	/debug/obs     — JSON snapshot: per-track per-phase live aggregates
//	                 (count, total ns, mean ns), the registered comm stats
//	                 source, and the attached registry's JSON view
//	/debug/metrics — Prometheus text: the attached registry's counters
//	                 and gauges, and every track's phase aggregates as
//	                 sasgd_phase_ns_total / sasgd_phase_spans_total
//	                 counters labelled by track and phase (404 without a
//	                 registry)
//	/debug/pprof/  — the runtime profiles of net/http/pprof, so that
//	                 `go tool pprof http://ADDR/debug/pprof/profile`
//	                 profiles a run in flight
//
// Every view reads only atomics (plus the fleet mutex), so it is safe
// while the run is in flight and sorted, so scrapes are deterministic;
// span rings (percentiles, trace export) remain end-of-run artifacts.

// LiveSnapshot is the JSON shape served at /debug/obs.
type LiveSnapshot struct {
	Tracks []LiveTrack `json:"tracks"`
	Stats  interface{} `json:"stats,omitempty"`
	// Metrics is the attached registry's snapshot (SetMetrics): counters,
	// gauges, sample series and the fleet health view — including each
	// rank's simulated compute/communication split, the live view of the
	// SimComm numbers the hidden-fraction analysis in internal/experiments
	// is computed from. Omitted when no registry is attached.
	Metrics *Snap `json:"metrics,omitempty"`
}

// LiveTrack is one track's live aggregate view.
type LiveTrack struct {
	Name    string      `json:"name"`
	Process string      `json:"process"`
	Spans   int         `json:"spans"`
	Dropped int         `json:"dropped"`
	Phases  []LivePhase `json:"phases"`
}

// LivePhase is one phase's live aggregate on a track.
type LivePhase struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// Snap is the registry's JSON shape inside the /debug/obs view.
type Snap struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]float64    `json:"gauges,omitempty"`
	Series   map[string]SeriesSnap `json:"series,omitempty"`
	Fleet    *FleetSnap            `json:"fleet,omitempty"`
	Events   int64                 `json:"events,omitempty"`
}

// SeriesSnap is one sample ring's snapshot: the retained window.
type SeriesSnap struct {
	Len    int       `json:"len"` // samples ever recorded
	Stamps []int64   `json:"stamps"`
	Values []float64 `json:"values"`
}

// Snapshot returns the live aggregate view (safe mid-run).
func (tr *Tracer) Snapshot() LiveSnapshot {
	snap := LiveSnapshot{Tracks: []LiveTrack{}}
	if tr == nil {
		return snap
	}
	snap.Tracks = append(snap.Tracks, tr.liveTracks()...)
	snap.Stats = tr.Stats()
	snap.Metrics = tr.metrics.Snapshot()
	return snap
}

// liveTracks reads every track's atomic per-phase aggregates.
func (tr *Tracer) liveTracks() []LiveTrack {
	var out []LiveTrack
	for _, t := range tr.Tracks() {
		lt := LiveTrack{Name: t.name, Process: t.process, Spans: t.Len(), Dropped: t.Dropped()}
		for ph := Phase(0); ph < NumPhases; ph++ {
			c := t.agg[ph].count.Load()
			if c == 0 {
				continue
			}
			ns := t.agg[ph].ns.Load()
			lt.Phases = append(lt.Phases, LivePhase{
				Phase: ph.String(), Count: c, TotalNs: ns, MeanNs: float64(ns) / float64(c),
			})
		}
		out = append(out, lt)
	}
	return out
}

// Snapshot returns the registry's JSON view (nil on a nil registry).
func (r *Registry) Snapshot() *Snap {
	if r == nil {
		return nil
	}
	cs, gs, rs := r.snapshotLists()
	s := &Snap{Fleet: r.Fleet().Snapshot(), Events: r.Events().Count(),
		Counters: make(map[string]int64, len(cs)), Gauges: make(map[string]float64, len(gs)),
		Series: make(map[string]SeriesSnap, len(rs))}
	for _, c := range cs {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gs {
		s.Gauges[g.name] = g.Value()
	}
	for _, ring := range rs {
		stamps, vals := ring.Samples()
		s.Series[ring.name] = SeriesSnap{Len: ring.Len(), Stamps: stamps, Values: vals}
	}
	return s
}

// writeMetrics writes the /debug/metrics exposition (Prometheus text
// format 0.0.4): the attached registry's counters and gauges, then each
// track's phase totals and span counts.
func (tr *Tracer) writeMetrics(w io.Writer) error {
	var b strings.Builder
	lastName := ""
	sample := func(name, kind, series, v string) {
		if name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
			lastName = name
		}
		fmt.Fprintf(&b, "%s %s\n", series, v)
	}
	cs, gs, _ := tr.metrics.snapshotLists()
	for _, c := range cs {
		sample(c.name, "counter", c.name, strconv.FormatInt(c.Value(), 10))
	}
	for _, g := range gs {
		sample(g.name, "gauge", g.name, strconv.FormatFloat(g.Value(), 'g', -1, 64))
	}
	tracks := tr.liveTracks()
	for _, name := range []string{"sasgd_phase_ns_total", "sasgd_phase_spans_total"} {
		for _, t := range tracks {
			for _, p := range t.Phases {
				v := p.TotalNs
				if name == "sasgd_phase_spans_total" {
					v = p.Count
				}
				sample(name, "counter", fmt.Sprintf("%s{track=%q,phase=%q}", name, t.Name, p.Phase),
					strconv.FormatInt(v, 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the debug mux for the tracer (also usable under a
// caller's own server).
func (tr *Tracer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(tr.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		if tr.metrics == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := tr.writeMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	// net/http/pprof registers itself on http.DefaultServeMux, which this
	// server does not use; mount its handlers here. Index serves the named
	// profiles (heap, goroutine, block, mutex, ...) under its prefix.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug HTTP server on addr in a background
// goroutine and returns the bound address (useful with ":0"). The
// server lives for the remainder of the process; training commands use
// it for live inspection of long runs.
func (tr *Tracer) ServeDebug(addr string) (string, error) {
	if tr == nil {
		return "", fmt.Errorf("obs: ServeDebug on nil tracer")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: tr.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
