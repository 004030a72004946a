package coord

// replicaStatus is one replica's row in the /debug/coord document.
type replicaStatus struct {
	ID          int    `json:"id"`
	Alive       bool   `json:"alive"`
	Partitioned bool   `json:"partitioned"`
	LastIndex   uint64 `json:"last_index"`
	Applied     uint64 `json:"applied"`
	SnapIndex   uint64 `json:"snap_index"`
	LogLen      int    `json:"log_len"`
}

// Status is the /debug/coord JSON document: the cluster's leadership and
// log frontier plus one row per replica.
type Status struct {
	Replicas         int             `json:"replicas"`
	Term             uint64          `json:"term"`
	Leader           int             `json:"leader"`
	Available        bool            `json:"available"`
	LeaseUntilSlot   int64           `json:"lease_until_slot"`
	Slot             int64           `json:"slot"`
	Sessions         int             `json:"sessions"`
	Elections        uint64          `json:"elections"`
	Commits          uint64          `json:"commits"`
	Rejected         uint64          `json:"rejected"`
	SnapshotInstalls uint64          `json:"snapshot_installs"`
	Converged        bool            `json:"converged"`
	Rows             []replicaStatus `json:"replica_status"`
}

// Status snapshots the cluster for /debug/coord. Callers must hold
// whatever lock guards the cluster (fleet.Live wraps this).
func (c *Cluster) Status() Status {
	st := Status{
		Replicas:         len(c.reps),
		Term:             c.term,
		Leader:           c.leader,
		Available:        c.Available(),
		LeaseUntilSlot:   c.leaseUntil,
		Slot:             c.slot,
		Sessions:         c.sessions(),
		Elections:        c.elections,
		Commits:          c.commits,
		Rejected:         c.rejected,
		SnapshotInstalls: c.installs,
		Converged:        c.Converged(),
	}
	for i, r := range c.reps {
		st.Rows = append(st.Rows, replicaStatus{
			ID:          i,
			Alive:       r.alive,
			Partitioned: !c.reachable(i),
			LastIndex:   r.lastIndex(),
			Applied:     r.st.Applied,
			SnapIndex:   r.snapIndex,
			LogLen:      len(r.log),
		})
	}
	return st
}
