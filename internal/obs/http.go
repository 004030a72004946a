package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// metricsHandler serves the registry in Prometheus text exposition format
// (a nil registry serves an empty body).
func metricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// slotsResponse is the /debug/slots JSON document.
type slotsResponse struct {
	Summary Summary `json:"summary"`
	// RingCapacity is the configured flight-recorder ring size and
	// RingDropped how many records have already fallen out of it.
	RingCapacity int          `json:"ring_capacity"`
	RingDropped  uint64       `json:"ring_dropped"`
	Recent       []SlotRecord `json:"recent"`
}

// slotsHandler serves the recorder's summary and its most recent records as
// JSON. The `n` query parameter bounds the record count (default 64).
func slotsHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n, ok := queryN(w, req); ok {
			ServeJSON(w, slotsResponse{
				Summary:      rec.Summary(),
				RingCapacity: rec.RingCapacity(),
				RingDropped:  rec.Dropped(),
				Recent:       rec.Recent(n),
			})
		}
	})
}

// queryN reads the `n` query parameter that bounds a /debug page's record
// tail (default 64). A bad value is answered with 400 and reported false.
func queryN(w http.ResponseWriter, req *http.Request) (int, bool) {
	s := req.URL.Query().Get("n")
	if s == "" {
		return 64, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// WriteJSON writes v as indented JSON: the body of every /debug page and
// of the CLIs' -json reports.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ServeJSON answers an HTTP request with v as indented JSON.
func ServeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = WriteJSON(w, v) // a failed write means the client left
}

// MuxOptions selects the optional observability routes.
type MuxOptions struct {
	// SLO, when non-nil, adds /debug/slo and refreshes the SLO gauges on
	// every /metrics scrape.
	SLO *SLOMonitor
	// Breaker, when non-nil, refreshes the breaker's session gauges on
	// every /metrics scrape.
	Breaker *Breaker
	// Regret, when non-nil, adds /debug/regret.
	Regret *RegretAttributor
	// Fleet, when non-nil, adds /debug/fleet serving the coordinator's
	// shard table and placement-decision tail.
	Fleet func(n int) FleetSnapshot
	// Health, when non-nil, adds /debug/health. The handler comes from
	// obs/tsdb (tsdb.Handler); it is a plain http.Handler here so obs does
	// not depend on the health store package.
	Health http.Handler
	// Coord, when non-nil, adds /debug/coord serving the replicated
	// coordinator's leadership and log-frontier document (a coord.Status),
	// a plain http.Handler here so obs does not depend on the coordinator
	// package.
	Coord http.Handler
	// Debug adds the pprof endpoints and /debug/runtime, and samples the
	// runtime into collabvr_runtime_* gauges on every /metrics scrape.
	Debug bool
}

// NewMuxOpts returns an http.ServeMux with the standard observability
// routes, /metrics (Prometheus text) and /debug/slots (flight-recorder
// JSON), plus the optional ones opts selects.
func NewMuxOpts(r *Registry, rec *Recorder, opts MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	metricsHandler := metricsHandler(r)
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if opts.Debug {
			collectRuntime(r)
		}
		opts.SLO.refreshGauges()
		opts.Breaker.counts()
		metricsHandler.ServeHTTP(w, req)
	}))
	mux.Handle("/debug/slots", slotsHandler(rec))
	if opts.SLO != nil {
		mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, _ *http.Request) {
			ServeJSON(w, opts.SLO.Snapshot())
		})
	}
	if opts.Regret != nil {
		mux.HandleFunc("/debug/regret", func(w http.ResponseWriter, _ *http.Request) {
			ServeJSON(w, opts.Regret.Report())
		})
	}
	if opts.Fleet != nil {
		mux.Handle("/debug/fleet", fleetHandler(opts.Fleet))
	}
	if opts.Health != nil {
		mux.Handle("/debug/health", opts.Health)
	}
	if opts.Coord != nil {
		mux.Handle("/debug/coord", opts.Coord)
	}
	if opts.Debug {
		attachDebug(mux, r)
	}
	return mux
}
