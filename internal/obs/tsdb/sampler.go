package tsdb

import "repro/internal/obs"

// SamplerOptions configures a Sampler.
type SamplerOptions struct {
	// Store receives the samples. Required (a nil store yields a nil
	// sampler-equivalent: NewSampler still returns a sampler but every
	// series it writes is nil, so prefer leaving the sampler nil too).
	Store *Store
	// Registry is walked every sample pass: each counter, gauge and
	// histogram becomes a fleet-wide series of the same name (histograms
	// expand to <name>_mean and <name>_p95). Optional.
	Registry *obs.Registry
	// SLO contributes collabvr_slo_sessions_{ok,warn,page} and
	// collabvr_slo_worst_burn series from its alloc-free Totals. Optional.
	SLO *obs.SLOMonitor
}

type histSeries struct {
	mean *Series
	p95  *Series
}

// Sampler walks the obs registry and SLO monitor on the slot clock and
// folds what it finds into the Store. A nil *Sampler is the disabled
// sampler: Sample is an allocation-free no-op, so an uninstrumented slot
// loop pays one pointer check.
//
// The walk closures are built once at construction and reused — Go method
// values allocate per use, and Sample sits on the slot loop.
type Sampler struct {
	store *Store
	reg   *obs.Registry
	slo   *obs.SLOMonitor

	slot      int64 // slot being sampled; set before each walk
	counterFn func(name string, c *obs.Counter)
	gaugeFn   func(name string, g *obs.Gauge)
	histFn    func(name string, h *obs.Histogram)

	// histograms expand to derived <name>_mean/<name>_p95 series; the pair
	// is cached per histogram so steady-state passes skip the name concat.
	hists map[string]histSeries

	sloOK, sloWarn, sloPage, sloBurn *Series
}

// NewSampler builds a sampler over opts.
func NewSampler(opts SamplerOptions) *Sampler {
	s := &Sampler{
		store: opts.Store,
		reg:   opts.Registry,
		slo:   opts.SLO,
	}
	s.counterFn = func(name string, c *obs.Counter) {
		s.store.Series(name, Counter).Observe(s.slot, float64(c.Value()))
	}
	s.gaugeFn = func(name string, g *obs.Gauge) {
		s.store.Series(name, Gauge).Observe(s.slot, g.Value())
	}
	s.hists = make(map[string]histSeries)
	s.histFn = func(name string, h *obs.Histogram) {
		pair, ok := s.hists[name]
		if !ok {
			pair = histSeries{
				mean: s.store.Series(name+"_mean", hist),
				p95:  s.store.Series(name+"_p95", hist),
			}
			s.hists[name] = pair
		}
		pair.mean.Observe(s.slot, h.Mean())
		pair.p95.Observe(s.slot, h.Quantile(0.95))
	}
	if s.slo != nil {
		s.sloOK = s.store.Series("collabvr_slo_sessions_ok", Gauge)
		s.sloWarn = s.store.Series("collabvr_slo_sessions_warn", Gauge)
		s.sloPage = s.store.Series("collabvr_slo_sessions_page", Gauge)
		s.sloBurn = s.store.Series("collabvr_slo_worst_burn", Gauge)
	}
	return s
}

// Sample runs one sampling pass at the given slot; a nil sampler never
// samples. Steady-state passes do not
// allocate (series are created on first sight of each instrument).
func (s *Sampler) Sample(slot int64) {
	if s == nil {
		return
	}
	s.slot = slot
	// SLO first: its totals drive the evacuation loop, so they should be
	// the freshest signal at this slot.
	if s.slo != nil {
		ok, warn, page, burn := s.slo.Totals()
		s.sloOK.Observe(slot, float64(ok))
		s.sloWarn.Observe(slot, float64(warn))
		s.sloPage.Observe(slot, float64(page))
		s.sloBurn.Observe(slot, burn)
	}
	if s.reg != nil {
		s.reg.EachCounter(s.counterFn)
		s.reg.EachGauge(s.gaugeFn)
		s.reg.EachHistogram(s.histFn)
	}
}
