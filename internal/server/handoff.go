package server

import (
	"errors"
	"time"

	"repro/internal/core"
)

// HandoffState is the portable snapshot of one session's server-side
// streaming state: everything the adopting shard needs to continue the
// session's QoE accounting and estimators instead of starting cold. The
// in-process fleet coordinator hands the struct over directly; all fields
// are plain values so an out-of-process coordinator could gob-ship it.
type HandoffState struct {
	User uint32
	// Token authenticates the handoff: derived from (user, slot, shard,
	// epoch) at export, it names the exact handoff event in logs on both
	// sides and fences out stale leaders — a deposed coordinator's epoch
	// no longer reproduces the token the adopting shard expects.
	Token uint64
	// FromShard is the exporting shard's ID.
	FromShard int
	// Slot is the exporting shard's slot clock at export time.
	Slot uint32
	// Epoch is the coordinator term the migration was decided under. A
	// shard that has witnessed a newer term rejects the adoption (see
	// AdoptSession), so a deposed leader cannot create split-brain
	// double-ownership. 0 in single-replica mode — fencing disabled.
	Epoch uint64

	// Streaming QoE state (drives MeanQ and delta of h_n): T, SumViewedQ,
	// Covered.
	core.ViewState

	// Throughput estimator state: the EMA value and the goodput max-filter
	// window feeding the capacity estimate, oldest sample first.
	EstMbps    float64
	EMAPrimed  bool
	CapSamples []float64

	// Delay-regression samples: (rate, delay) pairs, oldest first.
	DelayRates []float64
	DelayMs    []float64
}

// HandoffToken derives the handoff event's identity with a splitmix64-style
// finalizer over (user, slot, shard, epoch) — deterministic per event,
// unique across shards and coordinator terms. The epoch mixes in as
// epoch×odd-constant, an identity at epoch 0, so single-replica
// deployments (term pinned to 0) produce bit-for-bit the tokens the
// pre-replication fleet did.
func HandoffToken(user uint32, slot uint32, shard int, epoch uint64) uint64 {
	z := uint64(user)<<32 | uint64(slot)
	z ^= (uint64(shard) + 1) * 0x9E3779B97F4A7C15
	z ^= epoch * 0xD6E8FEB86659FD93
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero token means "no handoff"
	}
	return z
}

// ReleaseSession completes an export: closing the control connection is the
// migration signal — the client's control reader redials (via its Redirect
// hook, which by now points at the adopting shard) and the control loop
// here exits into retireSession, which sees the handoff flag.
func (s *Server) ReleaseSession(user uint32) error {
	s.mu.Lock()
	sess, err := s.lookup("release", user)
	s.mu.Unlock()
	if err == nil {
		s.hangUp(sess)
	}
	return err
}

// ErrStaleEpoch marks an adoption fenced out because its handoff state was
// stamped under a deposed coordinator leader's term.
var ErrStaleEpoch = errors.New("stale coordinator epoch")

// WaitSession blocks until the user has an admitted, unretired session or
// the timeout elapses; fleet migration uses it to confirm the client's
// redial landed on the adopting shard. Every admission wakes it.
func (s *Server) WaitSession(user uint32, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		_, ok := s.find(user)
		joined := s.joined
		s.mu.Unlock()
		if ok {
			return true
		}
		select {
		case <-joined:
		case <-timer.C:
			return false
		}
	}
}
