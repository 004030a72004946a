package obs

import (
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
)

// runtimeSamples are the runtime/metrics series mirrored into the registry
// and the /debug/runtime document.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// collectRuntime samples the Go runtime (goroutine count, heap and total
// memory, GC cycles and pause quantiles) into collabvr_runtime_* gauges.
// Call it before serving a scrape; a nil registry makes it a no-op.
func collectRuntime(r *Registry) {
	if r == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			r.Gauge("collabvr_runtime_goroutines").Set(float64(s.Value.Uint64()))
		case "/memory/classes/heap/objects:bytes":
			r.Gauge("collabvr_runtime_heap_objects_bytes").Set(float64(s.Value.Uint64()))
		case "/memory/classes/total:bytes":
			r.Gauge("collabvr_runtime_total_bytes").Set(float64(s.Value.Uint64()))
		case "/gc/cycles/total:gc-cycles":
			r.Gauge("collabvr_runtime_gc_cycles_total").Set(float64(s.Value.Uint64()))
		case "/gc/pauses:seconds":
			h := s.Value.Float64Histogram()
			if h == nil {
				continue
			}
			r.Gauge("collabvr_runtime_gc_pause_p99_seconds").Set(float64HistQuantile(h, 0.99))
			r.Gauge("collabvr_runtime_gc_pause_max_seconds").Set(float64HistQuantile(h, 1))
		}
	}
}

// float64HistQuantile estimates a quantile of a runtime/metrics histogram;
// the highest populated bucket's upper edge bounds the estimate.
func float64HistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Buckets[i+1] is the bucket's upper edge; the last bucket's
			// edge may be +Inf, in which case fall back to its lower edge.
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// runtimeHandler serves the sampled runtime state as JSON.
func runtimeHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		collectRuntime(r)
		doc := map[string]float64{
			"goroutines":           r.Gauge("collabvr_runtime_goroutines").Value(),
			"heap_objects_bytes":   r.Gauge("collabvr_runtime_heap_objects_bytes").Value(),
			"total_bytes":          r.Gauge("collabvr_runtime_total_bytes").Value(),
			"gc_cycles_total":      r.Gauge("collabvr_runtime_gc_cycles_total").Value(),
			"gc_pause_p99_seconds": r.Gauge("collabvr_runtime_gc_pause_p99_seconds").Value(),
			"gc_pause_max_seconds": r.Gauge("collabvr_runtime_gc_pause_max_seconds").Value(),
		}
		ServeJSON(w, doc)
	})
}

// attachDebug registers the Go profiling endpoints (/debug/pprof/...) and
// the /debug/runtime sampler on the mux. Callers gate it behind a -debug
// flag: the pprof endpoints expose internals and can be expensive.
func attachDebug(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/runtime", runtimeHandler(r))
}
