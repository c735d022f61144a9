package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"sasgd/internal/obs/metrics"
)

// Live debug endpoint (-debug-addr): a plain net/http server exposing
//
//	/debug/vars   — standard expvar (plus the "sasgd" var below)
//	/debug/obs    — JSON snapshot: per-track per-phase live aggregates
//	                (count, total ns, mean ns) and the registered comm
//	                stats source
//	/debug/pprof/ — the runtime profiles of net/http/pprof, so that
//	                `go tool pprof http://ADDR/debug/pprof/profile`
//	                profiles a run in flight
//
// The snapshot reads only the tracks' atomic aggregates and the stats
// source's own atomics, so it is safe while the run is in flight; span
// rings (percentiles, trace export) remain end-of-run artifacts.

// LiveSnapshot is the JSON shape served at /debug/obs.
type LiveSnapshot struct {
	Tracks []LiveTrack `json:"tracks"`
	Stats  interface{} `json:"stats,omitempty"`
	// Metrics is the attached metrics registry's snapshot (SetMetrics):
	// counters, gauges, histograms, sample series and the fleet health
	// view — including each rank's simulated compute/communication
	// split, the live view of the SimComm numbers the hidden-fraction
	// analysis in internal/experiments is computed from. Omitted when no
	// registry is attached.
	Metrics *metrics.Snap `json:"metrics,omitempty"`
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

// Snapshot returns the live aggregate view (safe mid-run).
func (tr *Tracer) Snapshot() LiveSnapshot {
	snap := LiveSnapshot{Tracks: []LiveTrack{}}
	if tr == nil {
		return snap
	}
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
		snap.Tracks = append(snap.Tracks, lt)
	}
	snap.Stats = tr.Stats()
	snap.Metrics = tr.Metrics().Snapshot()
	return snap
}

var (
	expvarOnce sync.Once
	expvarTr   *Tracer
	expvarMu   sync.Mutex
)

// publishExpvar registers the "sasgd" expvar exactly once (expvar
// panics on duplicate names); the variable always reads the most
// recently served tracer.
func publishExpvar(tr *Tracer) {
	expvarMu.Lock()
	expvarTr = tr
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("sasgd", expvar.Func(func() interface{} {
			expvarMu.Lock()
			t := expvarTr
			expvarMu.Unlock()
			return t.Snapshot()
		}))
	})
}

// Handler returns the debug mux for the tracer (also usable under a
// caller's own server).
func (tr *Tracer) Handler() http.Handler {
	publishExpvar(tr)
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
		reg := tr.Metrics()
		if reg == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
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
