package coord

import (
	"reflect"
	"testing"
)

// FuzzCoordLog drives a cluster through an arbitrary byte-encoded
// interleaving of ownership ops, replica crashes, restarts, partitions,
// and slot ticks, mirroring every COMMITTED op into a shadow model. After
// a full heal (everyone restarted, partitions drained, elections settled)
// every replica must hold a state DeepEqual to the model: replication
// never loses, duplicates, or reorders a committed owner-map mutation,
// no matter how the failures interleave.
//
// Byte format: data[0] picks the cluster shape (low bits → 3..5 replicas,
// high bits → lease length); the rest is consumed in (op, arg) pairs.
func FuzzCoordLog(f *testing.F) {
	f.Add([]byte{0x23, 0x00, 0x13, 0x02, 0x47, 0x06, 0x00, 0x09, 0x03, 0x07, 0x00, 0x02, 0x51})
	f.Add([]byte{0x41, 0x06, 0x00, 0x08, 0x15, 0x09, 0x02, 0x00, 0x22, 0x06, 0x01, 0x09, 0x04, 0x07, 0x01})
	f.Add([]byte{0x10, 0x05, 0x31, 0x04, 0x80, 0x08, 0x00, 0x09, 0x01, 0x02, 0x31, 0x03, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 3 + int(data[0])%3 // 3..5 replicas
		lease := 2 + int(data[0]>>4)%4
		c := New(Config{Replicas: n, LeaseSlots: lease, SnapshotEvery: 4})

		// Shadow model: what the owner map must look like, fed only by
		// proposals the cluster actually committed.
		owner := map[uint32]int{}
		var shares []float64
		slot := int64(0)

		commit := func(op Op) {
			if c.Propose(op) != nil {
				return // rejected proposals must leave no trace
			}
			switch op.Kind {
			case OpPlace, OpFlip:
				owner[op.Session] = op.Shard
			case OpForget:
				delete(owner, op.Session)
			case OpBudgetSplit:
				shares = append(shares[:0], op.Shares...)
			case OpEvacBatch:
				for _, u := range op.Batch {
					owner[u] = op.Shard
				}
			}
		}

		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			sess := uint32(arg % 16)
			shard := int(arg>>4) % n
			switch op % 12 {
			case 0, 1:
				commit(Op{Kind: OpPlace, Session: sess, Shard: shard})
			case 2:
				commit(Op{Kind: OpFlip, Session: sess, From: shard, Shard: (shard + 1) % n})
			case 3:
				commit(Op{Kind: OpForget, Session: sess})
			case 4:
				s := []float64{float64(arg), float64(arg) * 2, float64(arg) * 3}
				commit(Op{Kind: OpBudgetSplit, Shares: s})
			case 5:
				commit(Op{Kind: OpEvacBatch, From: shard, Shard: (shard + 1) % n,
					Batch: []uint32{sess, sess + 1, sess + 2}})
			case 6:
				c.Kill(int(arg) % n)
			case 7:
				c.Restart(int(arg) % n)
			case 8:
				c.Partition(int(arg)%n, slot+1+int64(arg>>4))
			default:
				slot += 1 + int64(arg%4)
				c.Tick(slot)
			}
		}

		// Heal everything: revive every replica, drain every partition
		// window (bounded by 16 slots) and every lease, let elections and
		// anti-entropy settle.
		for i := 0; i < n; i++ {
			c.Restart(i)
		}
		for j := 0; j < 32+2*lease; j++ {
			slot++
			c.Tick(slot)
		}
		if !c.Available() {
			t.Fatalf("fully healed cluster (n=%d) still unavailable: leader=%d term=%d", n, c.leader, c.Term())
		}

		// Every replica must have converged to exactly the model.
		for i := 0; i < n; i++ {
			st := c.reps[i].st
			if !reflect.DeepEqual(st.Owner, owner) {
				t.Fatalf("replica %d owner map diverged from committed model:\n got %v\nwant %v", i, st.Owner, owner)
			}
			if len(shares) > 0 && !reflect.DeepEqual(st.Shares, shares) {
				t.Fatalf("replica %d shares diverged: got %v want %v", i, st.Shares, shares)
			}
		}
		if !c.Converged() {
			t.Fatal("Converged() false after all replicas matched the model")
		}
	})
}
