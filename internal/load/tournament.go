package load

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// candidate is one policy entrant of a tournament: a named allocator
// factory, optionally with its own objective parameters (tuned alpha/beta
// variants compete under their own weights but are scored on the shared
// fitness function).
type candidate struct {
	Name string
	// NewAllocator builds the candidate's allocator (fresh per run).
	NewAllocator func() core.Allocator
	// Params, when non-nil, overrides the tournament's base parameters for
	// this candidate's run.
	Params *core.Params
}

// fitnessWeights combines the per-candidate measurements into one scalar.
// Fitness = QoE*meanQoE + Fairness*jain - Miss*missRate - Regret*meanRegret,
// so higher is better on every axis.
type fitnessWeights struct {
	QoE      float64 `json:"qoe"`
	Fairness float64 `json:"fairness"`
	Miss     float64 `json:"miss"`
	Regret   float64 `json:"regret"`
}

// defaultFitnessWeights weight mean session QoE and Jain fairness equally,
// penalize deadline misses hard (a missed frame is the QoE cliff the paper
// optimizes against) and regret lightly (it is measured per slot on the
// objective scale, already reflected in QoE).
func defaultFitnessWeights() fitnessWeights {
	return fitnessWeights{QoE: 1, Fairness: 1, Miss: 5, Regret: 0.05}
}

// TournamentConfig parametrizes a deterministic policy tournament.
type TournamentConfig struct {
	// Sim is the base engine config shared by every candidate. Its
	// NewAllocator/AllocName/Recorder fields are ignored: each candidate
	// runs hermetically with its own allocator and flight recorder.
	Sim SimConfig
	// Candidates is the roster (default: defaultCandidates()).
	Candidates []candidate
	// SkipRegret disables the per-slot DP reference solve (fitness then
	// scores regret as zero) — a fast mode for large workloads.
	SkipRegret bool
}

// tournamentEntry is one candidate's scored result.
type tournamentEntry struct {
	Rank       int     `json:"rank"`
	Name       string  `json:"name"`
	Fitness    float64 `json:"fitness"`
	MeanQoE    float64 `json:"mean_qoe"`
	Fairness   float64 `json:"fairness"`
	MissRate   float64 `json:"miss_rate"`
	MeanRegret float64 `json:"mean_regret"`
	// TotalRegret and AttributedFraction summarize the candidate's regret
	// attribution (zero with SkipRegret).
	TotalRegret        float64 `json:"total_regret"`
	AttributedFraction float64 `json:"attributed_fraction"`
	// Completed sessions and degraded slots, for context.
	Completed     int `json:"completed"`
	DegradedSlots int `json:"degraded_slots"`
}

// TournamentResult is the ranked outcome of one tournament.
type TournamentResult struct {
	HorizonSlots int               `json:"horizon_slots"`
	Sessions     int               `json:"sessions"`
	Weights      fitnessWeights    `json:"weights"`
	Entries      []tournamentEntry `json:"entries"`
}

// defaultCandidates is the standard roster: Algorithm 1, its single-branch
// ablations, the three baselines — each under its registry name, so a row
// can be re-run with -algo — and two tuned alpha/beta variants of the
// proposed algorithm. The exact solver is left out: brute force is L^N.
func defaultCandidates(base core.Params) []candidate {
	alphaHi, betaHi := base, base
	alphaHi.Alpha *= 2
	betaHi.Beta *= 2
	registered := func(name string) func() core.Allocator {
		mk, err := baseline.Constructor(name)
		if err != nil {
			panic(err) // the roster below names only registered allocators
		}
		return mk
	}
	var roster []candidate
	for _, name := range []string{"dvgreedy", "density", "value", "firefly", "pavq", "uniform"} {
		roster = append(roster, candidate{Name: name, NewAllocator: registered(name)})
	}
	return append(roster,
		candidate{Name: "dvgreedy-alpha2x", NewAllocator: registered("dvgreedy"), Params: &alphaHi},
		candidate{Name: "dvgreedy-beta2x", NewAllocator: registered("dvgreedy"), Params: &betaHi})
}

// RunTournament runs every candidate through the deterministic virtual-time
// engine on the identical workload and ranks them by fitness. Each candidate
// gets a hermetic run: its own allocator, flight recorder and regret
// attributor, with the shared-state observers of the base config (metrics,
// tracer, SLO, breaker) detached so no candidate's run leaks into another.
// The ranking is bit-stable: same workload, same config, same order — ties
// break by candidate name.
func RunTournament(w *Workload, cfg TournamentConfig) (*TournamentResult, error) {
	candidates := cfg.Candidates
	if len(candidates) == 0 {
		candidates = defaultCandidates(cfg.Sim.withDefaults().Params)
	}
	weights := defaultFitnessWeights()
	seen := make(map[string]bool, len(candidates))
	result := &TournamentResult{
		HorizonSlots: w.Cfg.HorizonSlots,
		Sessions:     len(w.Sessions),
		Weights:      weights,
	}
	for _, c := range candidates {
		if c.Name == "" || c.NewAllocator == nil {
			return nil, fmt.Errorf("load: tournament candidate needs Name and NewAllocator")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("load: duplicate tournament candidate %q", c.Name)
		}
		seen[c.Name] = true

		simCfg := cfg.Sim
		simCfg.NewAllocator = c.NewAllocator
		simCfg.AllocName = c.Name
		if c.Params != nil {
			simCfg.Params = *c.Params
		}
		// Hermetic run: per-candidate recorder/attributor, shared observers
		// detached.
		simCfg.Metrics, simCfg.Tracer, simCfg.SLO, simCfg.Breaker = nil, nil, nil, nil
		attr := obs.NewRegretAttributor(obs.RegretAttributorOptions{})
		simCfg.Recorder = obs.NewRecorder(obs.RecorderOptions{RingSize: 1, Attributor: attr})
		simCfg.RegretRef = !cfg.SkipRegret

		report, err := Simulate(w, simCfg)
		if err != nil {
			return nil, fmt.Errorf("load: tournament candidate %q: %w", c.Name, err)
		}

		qoe := make([]float64, len(report.Outcomes))
		var qoeSum float64
		for i, o := range report.Outcomes {
			qoe[i] = o.QoE
			qoeSum += o.QoE
		}
		entry := tournamentEntry{
			Name:          c.Name,
			Fairness:      metrics.JainIndex(qoe),
			MissRate:      report.AggregateMissRate(),
			Completed:     report.Completed,
			DegradedSlots: report.DegradedSlots,
		}
		if len(qoe) > 0 {
			entry.MeanQoE = qoeSum / float64(len(qoe))
		}
		rep := attr.Report()
		if rep.Slots > 0 {
			entry.MeanRegret = rep.TotalRegret / float64(rep.Slots)
		}
		entry.TotalRegret = rep.TotalRegret
		entry.AttributedFraction = rep.AttributedFraction
		entry.Fitness = weights.QoE*entry.MeanQoE + weights.Fairness*entry.Fairness -
			weights.Miss*entry.MissRate - weights.Regret*entry.MeanRegret
		result.Entries = append(result.Entries, entry)
	}

	sort.SliceStable(result.Entries, func(i, j int) bool {
		a, b := result.Entries[i], result.Entries[j]
		if a.Fitness != b.Fitness {
			return a.Fitness > b.Fitness
		}
		return a.Name < b.Name
	})
	for i := range result.Entries {
		result.Entries[i].Rank = i + 1
	}
	return result, nil
}

// Format renders the ranked tournament table.
func (r *TournamentResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# policy tournament (%d sessions, %d slots)\n",
		r.Sessions, r.HorizonSlots)
	fmt.Fprintf(&b, "fitness = %.3g*qoe + %.3g*fairness - %.3g*miss - %.3g*regret\n",
		r.Weights.QoE, r.Weights.Fairness, r.Weights.Miss, r.Weights.Regret)
	fmt.Fprintf(&b, "%4s  %-18s %10s %10s %10s %10s %12s\n",
		"rank", "policy", "fitness", "mean_qoe", "fairness", "miss_rate", "mean_regret")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "%4d  %-18s %10.4f %10.4f %10.4f %10.4f %12.4f\n",
			e.Rank, e.Name, e.Fitness, e.MeanQoE, e.Fairness, e.MissRate, e.MeanRegret)
	}
	return b.String()
}
