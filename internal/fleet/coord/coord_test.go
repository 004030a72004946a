package coord

import (
	"testing"
)

func flip(user uint32, from, to int) Op {
	return Op{Kind: OpFlip, Session: user, From: from, Shard: to}
}

func place(user uint32, shard int) Op {
	return Op{Kind: OpPlace, Session: user, Shard: shard}
}

// TestSingleReplicaDirectApply: n=1 applies straight through, term stays 0
// (handoff tokens keep their pre-replication bytes), and a killed lone
// replica rejects cleanly.
func TestSingleReplicaDirectApply(t *testing.T) {
	c := New(Config{Replicas: 1})
	if c.Term() != 0 {
		t.Fatalf("single-replica term = %d, want 0 (fencing epoch must not perturb tokens)", c.Term())
	}
	if err := c.Propose(place(7, 2)); err != nil {
		t.Fatal(err)
	}
	if sh, ok := c.Lookup(7); !ok || sh != 2 {
		t.Fatalf("Lookup(7) = %d,%v want 2,true", sh, ok)
	}
	if err := c.Propose(Op{Kind: OpForget, Session: 7}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(7); ok {
		t.Fatal("forgot session still resolves")
	}
	c.Kill(0)
	if err := c.Propose(place(8, 0)); !Unavailable(err) {
		t.Fatalf("propose against killed lone replica: err = %v, want unavailable", err)
	}
	c.Restart(0)
	if err := c.Propose(place(8, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestProposeSteadyStateAllocs gates the single-replica replication hot
// path at 0 allocs/op: flips of an existing binding must not allocate.
func TestProposeSteadyStateAllocs(t *testing.T) {
	c := New(Config{Replicas: 1})
	if err := c.Propose(place(1, 0)); err != nil {
		t.Fatal(err)
	}
	to := 1
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.Propose(flip(1, 1-to, to)); err != nil {
			t.Fatal(err)
		}
		to = 1 - to
	})
	if allocs != 0 {
		t.Fatalf("single-replica flip Propose allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestLeaderKillElection: killing the leader stalls proposals for at most
// the lease, then the lowest-index survivor with the longest log takes
// over at term+1 and committed state survives intact.
func TestLeaderKillElection(t *testing.T) {
	c := New(Config{Replicas: 3, LeaseSlots: 4})
	c.Tick(0)
	if c.leader != 0 || c.Term() != 1 {
		t.Fatalf("bootstrap leader/term = %d/%d, want 0/1", c.leader, c.Term())
	}
	for u := uint32(1); u <= 5; u++ {
		if err := c.Propose(place(u, int(u)%3)); err != nil {
			t.Fatal(err)
		}
	}
	c.Kill(0)
	if err := c.Propose(flip(1, 1, 2)); !Unavailable(err) {
		t.Fatalf("propose under dead leader: %v, want unavailable", err)
	}
	// The lease (renewed at slot 0, so good until slot 4) must drain first.
	for slot := int64(1); slot < 4; slot++ {
		c.Tick(slot)
		if c.leader == 1 {
			t.Fatalf("election at slot %d, before the lease expired", slot)
		}
	}
	c.Tick(4)
	if c.leader != 1 {
		t.Fatalf("post-election leader = %d, want 1 (lowest surviving index)", c.leader)
	}
	if c.Term() != 2 {
		t.Fatalf("post-election term = %d, want 2", c.Term())
	}
	if c.Elections() != 1 {
		t.Fatalf("elections = %d, want 1", c.Elections())
	}
	// Committed state survived the failover.
	for u := uint32(1); u <= 5; u++ {
		if sh, ok := c.Lookup(u); !ok || sh != int(u)%3 {
			t.Fatalf("after failover Lookup(%d) = %d,%v want %d,true", u, sh, ok, int(u)%3)
		}
	}
	if err := c.Propose(flip(1, 1, 2)); err != nil {
		t.Fatalf("propose under new leader: %v", err)
	}
}

// TestElectionDeterminism: two identically-driven clusters elect the same
// leaders at the same slots — the bit-stability the sim campaigns rely on.
func TestElectionDeterminism(t *testing.T) {
	run := func() []int {
		c := New(Config{Replicas: 5, LeaseSlots: 3})
		var leaders []int
		for slot := int64(0); slot < 40; slot++ {
			switch slot {
			case 5:
				c.Kill(0)
			case 12:
				c.Kill(1)
			case 20:
				c.Restart(0)
			case 25:
				c.Kill(2)
			}
			c.Tick(slot)
			leaders = append(leaders, c.leader)
			if c.Available() {
				_ = c.Propose(place(uint32(slot), int(slot)%5))
			}
		}
		return leaders
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d: leader %d vs %d — elections are not deterministic", i, a[i], b[i])
		}
	}
}

// TestQuorumLoss: with a majority dead the cluster refuses proposals and
// elects nobody; restoring quorum restores service without losing state.
func TestQuorumLoss(t *testing.T) {
	c := New(Config{Replicas: 3, LeaseSlots: 2})
	c.Tick(0)
	if err := c.Propose(place(9, 1)); err != nil {
		t.Fatal(err)
	}
	c.Kill(1)
	c.Kill(2)
	if err := c.Propose(flip(9, 1, 0)); !Unavailable(err) {
		t.Fatalf("propose without quorum: %v, want unavailable", err)
	}
	for slot := int64(1); slot < 10; slot++ {
		c.Tick(slot)
	}
	if c.Available() {
		t.Fatal("cluster claims availability with 1/3 replicas alive")
	}
	c.Restart(1)
	c.Tick(10)
	if !c.Available() {
		t.Fatal("cluster unavailable after quorum restored")
	}
	if sh, ok := c.Lookup(9); !ok || sh != 1 {
		t.Fatalf("Lookup(9) = %d,%v want 1,true after recovery", sh, ok)
	}
}

// TestPartitionedLeaderDeposed: a partitioned leader loses quorum, the
// majority side elects around it after the lease, the term advances (the
// fencing epoch a stale leader's flips fail against), and the healed
// replica converges with no divergence to resolve.
func TestPartitionedLeaderDeposed(t *testing.T) {
	c := New(Config{Replicas: 3, LeaseSlots: 3})
	c.Tick(0)
	if err := c.Propose(place(1, 0)); err != nil {
		t.Fatal(err)
	}
	oldTerm := c.Term()
	c.Partition(0, 20)
	if err := c.Propose(flip(1, 0, 1)); !Unavailable(err) {
		t.Fatalf("propose through partitioned leader: %v, want unavailable", err)
	}
	var electedAt int64 = -1
	for slot := int64(1); slot < 20; slot++ {
		c.Tick(slot)
		if c.leader != 0 && c.leader >= 0 && electedAt < 0 {
			electedAt = slot
		}
	}
	if electedAt < 0 {
		t.Fatal("majority side never elected around the partitioned leader")
	}
	if c.Term() <= oldTerm {
		t.Fatalf("term did not advance past the deposed leader's (%d <= %d)", c.Term(), oldTerm)
	}
	if err := c.Propose(flip(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	// Heal: the deposed replica is caught up like any laggard.
	c.Tick(21)
	if !c.Converged() {
		t.Fatal("replicas diverged after the partition healed")
	}
	if sh, _ := c.Lookup(1); sh != 2 {
		t.Fatalf("Lookup(1) = %d, want 2", sh)
	}
}

// TestSnapshotCatchUp: a replica down long enough for the leader to
// compact past its log rejoins via snapshot install, not suffix replay,
// and still converges exactly.
func TestSnapshotCatchUp(t *testing.T) {
	c := New(Config{Replicas: 3, LeaseSlots: 4, SnapshotEvery: 8})
	c.Tick(0)
	c.Kill(2)
	for u := uint32(0); u < 100; u++ {
		if err := c.Propose(place(u, int(u)%3)); err != nil {
			t.Fatal(err)
		}
	}
	if c.reps[0].st.Applied != 100 {
		t.Fatalf("leader applied %d, want 100", c.reps[0].st.Applied)
	}
	c.Restart(2)
	c.Tick(1)
	if c.SnapshotInstalls() == 0 {
		t.Fatal("laggard rejoined without a snapshot install despite compaction")
	}
	if !c.Converged() {
		t.Fatal("replicas diverged after snapshot install")
	}
	if c.reps[2].st.Applied != 100 {
		t.Fatalf("restarted replica applied %d, want 100", c.reps[2].st.Applied)
	}
}

// TestBudgetSplitAndEvacBatch: the two composite ops replicate their
// payloads by value (callers may reuse scratch) and apply atomically.
func TestBudgetSplitAndEvacBatch(t *testing.T) {
	c := New(Config{Replicas: 3, LeaseSlots: 4})
	c.Tick(0)
	shares := []float64{100, 200, 300}
	if err := c.Propose(Op{Kind: OpBudgetSplit, Shares: shares}); err != nil {
		t.Fatal(err)
	}
	shares[0] = -1 // caller reuses its scratch; the log must own a copy
	batch := []uint32{4, 5, 6}
	if err := c.Propose(Op{Kind: OpEvacBatch, From: 0, Shard: 2, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	batch[0] = 99
	for i := 0; i < 3; i++ {
		st := c.reps[i].st
		if len(st.Shares) != 3 || st.Shares[0] != 100 {
			t.Fatalf("replica %d shares = %v, want [100 200 300]", i, st.Shares)
		}
		for _, u := range []uint32{4, 5, 6} {
			if sh, ok := st.Owner[u]; !ok || sh != 2 {
				t.Fatalf("replica %d: evac-batch session %d on shard %d,%v want 2", i, u, sh, ok)
			}
		}
	}
	if !c.Converged() {
		t.Fatal("replicas diverged after composite ops")
	}
}

// TestStatusDocument sanity-checks the /debug/coord snapshot fields.
func TestStatusDocument(t *testing.T) {
	c := New(Config{Replicas: 3, LeaseSlots: 4})
	c.Tick(0)
	if err := c.Propose(place(1, 1)); err != nil {
		t.Fatal(err)
	}
	c.Kill(2)
	st := c.Status()
	if st.Replicas != 3 || st.Term != 1 || st.Leader != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.Sessions != 1 || st.Commits != 1 {
		t.Fatalf("status sessions/commits = %d/%d, want 1/1", st.Sessions, st.Commits)
	}
	if len(st.Rows) != 3 || st.Rows[2].Alive {
		t.Fatalf("replica rows wrong: %+v", st.Rows)
	}
	if !st.Converged {
		t.Fatal("status reports divergence among alive replicas")
	}
}
