package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestHandoffTokenEpochZeroIdentity pins the byte-identity guarantee the
// replicated coordinator's default mode rests on: at epoch 0 (the
// single-replica cluster's forever-term) the token formula reduces exactly
// to the pre-replication (user, slot, shard) splitmix64, so golden fleet
// campaigns see unchanged tokens.
func TestHandoffTokenEpochZeroIdentity(t *testing.T) {
	legacy := func(user uint32, slot uint32, shard int) uint64 {
		z := uint64(user)<<32 | uint64(slot)
		z ^= (uint64(shard) + 1) * 0x9E3779B97F4A7C15
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		if z == 0 {
			z = 1
		}
		return z
	}
	for _, tc := range []struct {
		user, slot uint32
		shard      int
	}{{1, 0, 0}, {42, 300, 3}, {0xFFFFFFFF, 0xFFFFFFFF, 15}, {7, 12345, 1}} {
		if got, want := HandoffToken(tc.user, tc.slot, tc.shard, 0), legacy(tc.user, tc.slot, tc.shard); got != want {
			t.Fatalf("HandoffToken(%d,%d,%d,epoch=0) = %016x, legacy = %016x — epoch mixing is not an identity at 0",
				tc.user, tc.slot, tc.shard, got, want)
		}
	}
	// And a non-zero epoch must actually change the token (fencing bites).
	if HandoffToken(42, 300, 3, 0) == HandoffToken(42, 300, 3, 2) {
		t.Fatal("epoch does not perturb the token — stale flips would not be fenced")
	}
}

// TestAdoptSessionEpochFencing: a shard that has witnessed coordinator
// term E rejects handoff state stamped under any term < E (the deposed
// leader's replay) and any state whose token does not reproduce from its
// own fields, counting both in collabvr_fleet_coord_fenced_total.
func TestAdoptSessionEpochFencing(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.Metrics = reg
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fenced := reg.Counter("collabvr_fleet_coord_fenced_total")
	mk := func(epoch uint64) *HandoffState {
		return &HandoffState{
			User: 5, Slot: 10, FromShard: 2, Epoch: epoch,
			Token: HandoffToken(5, 10, 2, epoch),
		}
	}

	srv.SetCoordEpoch(3)
	if got := srv.CoordEpoch(); got != 3 {
		t.Fatalf("CoordEpoch = %d, want 3", got)
	}
	srv.SetCoordEpoch(1) // monotonic: a late broadcast cannot lower the fence
	if got := srv.CoordEpoch(); got != 3 {
		t.Fatalf("CoordEpoch lowered to %d by a stale broadcast", got)
	}

	// Deposed leader's state (term 2 < witnessed 3): fenced.
	if err := srv.AdoptSession(mk(2)); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale-epoch adopt: err = %v, want ErrStaleEpoch", err)
	}
	if fenced.Value() != 1 {
		t.Fatalf("fenced counter = %d, want 1", fenced.Value())
	}

	// Correct epoch but a token minted under the old term: fenced too.
	bad := mk(3)
	bad.Token = HandoffToken(5, 10, 2, 2)
	if err := srv.AdoptSession(bad); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("token-mismatch adopt: err = %v, want ErrStaleEpoch", err)
	}
	if fenced.Value() != 2 {
		t.Fatalf("fenced counter = %d, want 2", fenced.Value())
	}

	// The new leader's state (term 4) adopts and advances the fence.
	if err := srv.AdoptSession(mk(4)); err != nil {
		t.Fatalf("fresh-epoch adopt: %v", err)
	}
	if got := srv.CoordEpoch(); got != 4 {
		t.Fatalf("CoordEpoch after adopt = %d, want 4", got)
	}
	if fenced.Value() != 2 {
		t.Fatalf("fenced counter moved on a valid adopt: %d", fenced.Value())
	}

	// Rollback surface: the pending state can be dropped exactly once.
	if !srv.DropAdopted(5) {
		t.Fatal("DropAdopted found no pending state")
	}
	if srv.DropAdopted(5) {
		t.Fatal("DropAdopted dropped twice")
	}
}

// TestCancelExportRollsBackHandoff: a session whose export is cancelled
// (failed migration) keeps streaming and later retires as a normal
// departure — the handoff-out counter must not move.
func TestCancelExportRollsBackHandoff(t *testing.T) {
	baseline := obs.LeakSnapshot()
	reg := obs.NewRegistry()
	cfg := DefaultConfig(core.NewSolverAllocator())
	cfg.SlotDuration = 2 * time.Millisecond
	cfg.Metrics = reg
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const user = 77
	fc, err := dialQuiet(srv, user)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.WaitSession(user, time.Second) {
		t.Fatal("session never admitted")
	}

	st, err := srv.ExportSession(user)
	if err != nil {
		t.Fatal(err)
	}
	if st.Token == 0 || st.Epoch != 0 {
		t.Fatalf("export token/epoch = %016x/%d, want non-zero token at epoch 0", st.Token, st.Epoch)
	}
	// The migration fails downstream (adopt refused / flip rejected):
	// roll the export back.
	if err := srv.CancelExport(user); err != nil {
		t.Fatal(err)
	}

	// The session departs normally afterwards.
	fc.close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions still admitted after close", n)
	}
	if v := reg.Counter("collabvr_server_sessions_handoff_out_total").Value(); v != 0 {
		t.Fatalf("cancelled export still retired as a handoff (handoff_out=%d)", v)
	}
	if v := reg.Counter("collabvr_server_sessions_left_total").Value(); v != 1 {
		t.Fatalf("sessions_left = %d, want 1 (normal departure)", v)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	obs.AssertNoLeaks(t, baseline)
}
