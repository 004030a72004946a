package fleet

import "repro/internal/obs"

// Router scores candidate shards and records every decision. It carries no
// shard state of its own — callers pass the current ShardState slice — so
// one Router serves both the virtual-time engine and the live coordinator.
type Router struct {
	scorer   Scorer
	recorder *obs.PlacementRecorder
	placed   uint64
	failed   uint64
}

// NewRouter builds a router; a nil scorer defaults to LeastLoaded and a nil
// recorder disables decision capture.
func NewRouter(scorer Scorer, recorder *obs.PlacementRecorder) *Router {
	if scorer == nil {
		scorer = LeastLoaded{}
	}
	return &Router{scorer: scorer, recorder: recorder}
}

// scorerName returns the active scorer's name.
func (r *Router) scorerName() string { return r.scorer.Name() }

// placedCount counts decisions that found a shard.
func (r *Router) placedCount() uint64 { return r.placed }

// Place picks the best-scoring accepting shard for the session, excluding
// `from` (the shard being evacuated; -1 for arrivals), and records the
// decision under `reason` (one of the obs.Place* constants). Shards are
// scanned in index order and ties keep the lowest index, so placement is
// bit-deterministic. Returns -1 when no shard can accept.
func (r *Router) Place(slot int, sess SessionInfo, shards []ShardState, reason string, from int) int {
	chosen := -1
	best := 0.0
	var scores []obs.ShardScore
	record := r.recorder != nil
	for i := range shards {
		sh := &shards[i]
		if !sh.accepting() || sh.ID == from {
			continue
		}
		score := r.scorer.Score(*sh, sess)
		if record {
			scores = append(scores, obs.ShardScore{
				Shard:      sh.ID,
				Zone:       sh.Zone,
				Score:      score,
				Sessions:   sh.Sessions,
				BudgetMbps: sh.BudgetMbps,
				DemandMbps: sh.DemandMbps,
				PageFrac:   sh.PageFrac,
				Draining:   sh.Draining,
			})
		}
		if chosen == -1 || score > best {
			chosen = sh.ID
			best = score
		}
	}
	if chosen >= 0 {
		r.placed++
	} else {
		r.failed++
	}
	if record {
		r.recorder.Record(&obs.PlacementRecord{
			Slot:    slot,
			Session: sess.ID,
			Zone:    sess.Zone,
			Scorer:  r.scorer.Name(),
			Reason:  reason,
			Chosen:  chosen,
			From:    from,
			Scores:  scores,
		})
	}
	return chosen
}
