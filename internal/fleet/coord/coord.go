// Package coord replicates the fleet coordinator's owner map. PR 7's fleet
// made one server survivable by spreading sessions over shards, but the
// coordinator itself — the session→shard owner map, the budget split, the
// in-flight migration bookkeeping — stayed a single point of failure: lose
// the process and every binding is gone, with in-flight Welcome-resume
// migrations stranded between export and flip.
//
// The fix is the classical one, kept deliberately small and deterministic:
// the owner map becomes a replicated state machine run by 2f+1 coordinator
// replicas. Every ownership mutation is an Op (place, flip, forget,
// budget-split, evac-batch) appended to a replicated log under a
// lease-based leader on the fleet's slot clock. An op commits only when a
// majority of replicas hold it, so any electable replica's log is a prefix
// of any other's and a new leader resumes from committed state alone — no
// conflict resolution, no uncommitted-suffix truncation. Elections are
// bit-stable per seed: when the lease of a dead or partitioned leader
// expires, the alive, connected replicas elect the one with the longest log
// (ties to the lowest replica index), bump the term, and catch everyone up
// via snapshot + log suffix.
//
// The term doubles as the fencing epoch: fleet layers bake it into the
// splitmix64 handoff tokens (server.HandoffState.Epoch), so a deposed
// leader replaying a stale flip is rejected by the shard instead of
// creating split-brain double ownership.
//
// Single-replica mode (Replicas <= 1) is the zero-cost default: Propose
// applies straight to the state machine with no log retention and no
// allocation on the steady-state path, the term stays 0 (tokens are
// byte-identical to the pre-replication fleet), and nothing about the
// fleet's decisions changes.
package coord

import (
	"errors"
	"fmt"
)

// opKind enumerates the replicated owner-map mutations.
type opKind uint8

const (
	// OpPlace binds an arriving session to a shard.
	OpPlace opKind = iota + 1
	// OpFlip moves a session's ownership From one shard to another — the
	// commit point of a live migration.
	OpFlip
	// OpForget drops a departed session's binding.
	OpForget
	// OpBudgetSplit records the rebalancer's per-shard budget shares.
	OpBudgetSplit
	// OpEvacBatch moves a whole SLO-pressure evacuation batch From one
	// shard to another in a single committed entry.
	OpEvacBatch
)

// String names the op kind for logs and the /debug/coord document.
func (k opKind) String() string {
	switch k {
	case OpPlace:
		return "place"
	case OpFlip:
		return "flip"
	case OpForget:
		return "forget"
	case OpBudgetSplit:
		return "budget-split"
	case OpEvacBatch:
		return "evac-batch"
	}
	return "unknown"
}

// Op is one owner-map mutation. Exactly the fields its kind needs are set;
// the rest stay zero so a flip proposes with no allocation.
type Op struct {
	Kind    opKind
	Session uint32
	// Shard is the target shard of place/flip/evac-batch.
	Shard int
	// From is the source shard of flip/evac-batch (rollback bookkeeping
	// and audit; Apply does not read it).
	From int
	// Shares carries the budget-split's per-shard shares.
	Shares []float64
	// Batch lists the sessions an evac-batch moves to Shard.
	Batch []uint32
}

// entry is one committed log record.
type entry struct {
	Index uint64
	Term  uint64
	Op    Op
}

// state is the replicated owner-map state machine: the materialized view
// every replica derives by applying the committed log in order. Two
// replicas with the same Applied index hold identical state by
// construction — that is the invariant FuzzCoordLog hammers.
type state struct {
	// Owner maps session → owning shard.
	Owner map[uint32]int
	// Shares is the last committed per-shard budget split (nil until the
	// first budget-split commits).
	Shares []float64
	// Applied is the index of the last entry folded in.
	Applied uint64
}

// newState returns an empty state machine.
func newState() *state { return &state{Owner: make(map[uint32]int)} }

// apply folds one committed entry into the state. Deterministic and
// allocation-free for place/flip/forget on an existing map footprint.
func (s *state) apply(e entry) {
	switch e.Op.Kind {
	case OpPlace, OpFlip:
		s.Owner[e.Op.Session] = e.Op.Shard
	case OpForget:
		delete(s.Owner, e.Op.Session)
	case OpBudgetSplit:
		s.Shares = append(s.Shares[:0], e.Op.Shares...)
	case OpEvacBatch:
		for _, u := range e.Op.Batch {
			s.Owner[u] = e.Op.Shard
		}
	}
	s.Applied = e.Index
}

// clone deep-copies the state — the payload of a snapshot install.
func (s *state) clone() *state {
	out := &state{
		Owner:   make(map[uint32]int, len(s.Owner)),
		Applied: s.Applied,
	}
	for u, sh := range s.Owner {
		out.Owner[u] = sh
	}
	if s.Shares != nil {
		out.Shares = append([]float64(nil), s.Shares...)
	}
	return out
}

// equal reports whether two states materialize the same view (owner map,
// shares, applied index) — the replica-convergence predicate.
func (s *state) equal(o *state) bool {
	if s.Applied != o.Applied || len(s.Owner) != len(o.Owner) || len(s.Shares) != len(o.Shares) {
		return false
	}
	for u, sh := range s.Owner {
		if osh, ok := o.Owner[u]; !ok || osh != sh {
			return false
		}
	}
	for i := range s.Shares {
		if s.Shares[i] != o.Shares[i] {
			return false
		}
	}
	return true
}

// Proposal rejections. errNoQuorum wraps ErrUnavailable so callers can
// treat both as "stall and retry" with a single errors.Is check.
var (
	// ErrUnavailable means no functioning leader holds the lease.
	ErrUnavailable = errors.New("coord: no available leader")
	// errNoQuorum means the leader cannot reach a majority of replicas.
	errNoQuorum = fmt.Errorf("coord: quorum unreachable: %w", ErrUnavailable)
)

// Unavailable reports whether err is a proposal rejection the caller
// should treat as a transient coordinator outage (queue, retry, or roll
// back — never drop the session).
func Unavailable(err error) bool { return errors.Is(err, ErrUnavailable) }
