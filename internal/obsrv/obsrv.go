// Package obsrv serves live engine observability over HTTP: Prometheus
// text-format metric families at /metrics, a JSON snapshot of in-flight
// queries at /queries, and the standard pprof handlers under /debug/pprof/.
//
// The package owns no state and knows no metric by name — on each scrape the
// engine snapshots every subsystem once and hands over the families built
// from those snapshots, so serving requests never perturbs the hot path
// beyond the loads one snapshot performs, and the values of one scrape are
// mutually consistent.
package obsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Sample is one exposition line of a family: an optional rendered label set
// (e.g. `array="spill",device="0"`) and a value.
type Sample struct {
	Labels string
	Value  float64
}

// Family is one Prometheus metric family and its current samples. A family
// with none still renders its header, so the set of family names on /metrics
// never depends on engine state.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Server renders engine observability snapshots over HTTP.
type Server struct {
	// Collect is called once per /metrics request; the families it returns
	// are rendered in order (nil serves an empty document).
	Collect func() []Family
	// Queries returns the in-flight query snapshot served at /queries (any
	// JSON-encodable list; nil serves an empty one).
	Queries func() any
}

// Handler returns the observability mux: /metrics, /queries, /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/queries", s.serveQueries)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) serveQueries(w http.ResponseWriter, _ *http.Request) {
	var qs any = []struct{}{}
	if s.Queries != nil {
		qs = s.Queries()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"queries": qs})
}

// serveMetrics writes every family in Prometheus text exposition format:
// one HELP/TYPE header, then the family's samples. The format allows one
// header per name, so two families sharing one is a programming error and
// fails the scrape instead of rendering an invalid document.
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	var fams []Family
	if s.Collect != nil {
		fams = s.Collect()
	}
	var b strings.Builder
	seen := make(map[string]bool, len(fams))
	for _, f := range fams {
		if seen[f.Name] {
			http.Error(w, "obsrv: metric family collected twice: "+f.Name, http.StatusInternalServerError)
			return
		}
		seen[f.Name] = true
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, sm := range f.Samples {
			if sm.Labels != "" {
				fmt.Fprintf(&b, "%s{%s} %g\n", f.Name, sm.Labels, sm.Value)
			} else {
				fmt.Fprintf(&b, "%s %g\n", f.Name, sm.Value)
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
