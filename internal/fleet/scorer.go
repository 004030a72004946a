package fleet

import "fmt"

// Scorer ranks candidate shards for one session; higher scores win and the
// router breaks ties on the lowest shard index, so any deterministic score
// function yields a deterministic placement sequence.
type Scorer interface {
	Name() string
	Score(shard ShardState, sess SessionInfo) float64
}

// projectedLoad is the shard's demand/budget ratio after admitting the
// session — the common congestion signal all built-in scorers minimize. A
// shard with no budget is maximally loaded rather than a division blowup.
func projectedLoad(shard ShardState, sess SessionInfo) float64 {
	const minBudget = 1e-9
	b := shard.BudgetMbps
	if b < minBudget {
		b = minBudget
	}
	return (shard.DemandMbps + sess.DemandMbps) / b
}

// LeastLoaded places on the shard with the lowest projected demand/budget
// ratio — the classic balanced-fleet default.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded" }

func (LeastLoaded) Score(shard ShardState, sess SessionInfo) float64 {
	return -projectedLoad(shard, sess)
}

// localityAware is least-loaded with a zone-affinity bonus: a same-zone
// shard wins unless it is more than ZoneBonus load units worse than the
// best remote shard (edge placement: keep the last hop short unless the
// local shard is badly congested).
type localityAware struct {
	// ZoneBonus is the score credit for a zone match (default 0.5 — a
	// same-zone shard may carry up to 50 percentage points more load
	// before a remote shard beats it).
	ZoneBonus float64
}

func (localityAware) Name() string { return "locality" }

func (s localityAware) Score(shard ShardState, sess SessionInfo) float64 {
	bonus := s.ZoneBonus
	if bonus == 0 {
		bonus = 0.5
	}
	score := -projectedLoad(shard, sess)
	if shard.Zone == sess.Zone {
		score += bonus
	}
	return score
}

// sloAware is least-loaded with a burn-rate penalty: shards whose sessions
// are paging their QoE SLO repel new placements proportionally, steering
// arrivals away from a shard that is already failing its users even when
// raw load looks acceptable.
type sloAware struct {
	// PagePenalty scales the PageFrac penalty (default 2 — a shard with
	// every session paging scores two full load units worse).
	PagePenalty float64
}

func (sloAware) Name() string { return "slo-burn" }

func (s sloAware) Score(shard ShardState, sess SessionInfo) float64 {
	penalty := s.PagePenalty
	if penalty == 0 {
		penalty = 2
	}
	return -projectedLoad(shard, sess) - penalty*shard.PageFrac
}

// ScorerByName maps CLI names to scorers.
func ScorerByName(name string) (Scorer, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}, nil
	case "locality":
		return localityAware{}, nil
	case "slo-burn", "slo":
		return sloAware{}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown scorer %q (want least-loaded, locality or slo-burn)", name)
	}
}
