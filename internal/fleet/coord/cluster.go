package coord

// Config tunes the replicated coordinator.
type Config struct {
	// Replicas is the coordinator replica count (2f+1 for f tolerated
	// failures; default 1 — a single replica, the zero-cost path).
	Replicas int
	// LeaseSlots is the leader lease length on the fleet's slot clock: a
	// dead or partitioned leader stalls ownership mutations for at most
	// this many slots before the survivors elect (default 8).
	LeaseSlots int
	// SnapshotEvery compacts a replica's applied log prefix into its
	// snapshot base once the retained log exceeds twice this many entries,
	// keeping this many for cheap suffix catch-up (default 256).
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.LeaseSlots <= 0 {
		c.LeaseSlots = 8
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// replica is one coordinator replica: its retained log suffix, the
// snapshot base the suffix grows from, and the applied state machine. The
// log holds committed entries only — Propose commits or rejects atomically
// — so any replica's log is a prefix of the leader's and catch-up is
// append-only.
type replica struct {
	id    int
	alive bool
	// partUntil partitions the replica from everyone until that slot
	// (exclusive); it heals by the clock, like a chaos window.
	partUntil int64

	// log[0], when present, has index snapIndex+1.
	log       []entry
	snapIndex uint64
	snapTerm  uint64
	st        *state
}

func (r *replica) lastIndex() uint64 {
	if n := len(r.log); n > 0 {
		return r.log[n-1].Index
	}
	return r.snapIndex
}

func (r *replica) lastTerm() uint64 {
	if n := len(r.log); n > 0 {
		return r.log[n-1].Term
	}
	return r.snapTerm
}

// applyTo folds committed entries up to index idx into the state machine.
func (r *replica) applyTo(idx uint64) {
	for i := range r.log {
		e := &r.log[i]
		if e.Index <= r.st.Applied {
			continue
		}
		if e.Index > idx {
			break
		}
		r.st.apply(*e)
	}
}

// compact drops the applied log prefix into the snapshot base once the
// retained suffix exceeds 2×keep entries, keeping the last keep entries
// for suffix catch-up of briefly-lagging replicas.
func (r *replica) compact(keep int) {
	if len(r.log) <= 2*keep {
		return
	}
	drop := len(r.log) - keep
	// Never compact past the applied frontier (can't happen — entries are
	// applied as they commit — but keep the invariant explicit).
	for drop > 0 && r.log[drop-1].Index > r.st.Applied {
		drop--
	}
	if drop == 0 {
		return
	}
	r.snapIndex = r.log[drop-1].Index
	r.snapTerm = r.log[drop-1].Term
	r.log = append(r.log[:0], r.log[drop:]...)
}

// Cluster is the replicated coordinator: a deterministic, single-threaded
// state machine over its replicas, driven by the fleet layer's slot clock.
// It is NOT safe for concurrent use — fleet.Live guards it with its own
// mutex and the virtual-time engine is single-threaded, which is what
// keeps elections bit-stable per seed.
type Cluster struct {
	cfg    Config
	reps   []*replica
	term   uint64
	leader int
	// leaseUntil is the slot (exclusive) the current lease covers; no
	// election may happen before it expires, even against a dead leader —
	// that wait IS the election timeout.
	leaseUntil int64
	slot       int64
	seq        uint64

	elections uint64
	commits   uint64
	rejected  uint64
	installs  uint64
}

// New builds the cluster. Multi-replica clusters bootstrap deterministically
// with replica 0 leading term 1; a single replica stays at term 0 forever so
// the fencing epoch never perturbs the pre-replication handoff tokens.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, leader: 0}
	for i := 0; i < cfg.Replicas; i++ {
		c.reps = append(c.reps, &replica{id: i, alive: true, st: newState()})
	}
	if cfg.Replicas > 1 {
		c.term = 1
		c.leaseUntil = int64(cfg.LeaseSlots)
	}
	return c
}

// Replicas returns the configured replica count.
func (c *Cluster) Replicas() int { return len(c.reps) }

// Reserve sizes each replica's empty owner map for sessions bindings, so an
// engine that knows its peak does not grow the maps as sessions arrive.
func (c *Cluster) Reserve(sessions int) {
	for _, r := range c.reps {
		if len(r.st.Owner) == 0 {
			r.st.Owner = make(map[uint32]int, sessions)
		}
	}
}

// Term returns the current leader term — the fencing epoch baked into
// handoff tokens. 0 in single-replica mode.
func (c *Cluster) Term() uint64 { return c.term }

// Elections counts leader changes after bootstrap.
func (c *Cluster) Elections() uint64 { return c.elections }

// Commits counts committed log entries.
func (c *Cluster) Commits() uint64 { return c.commits }

// Rejected counts proposals refused for want of a leader or quorum.
func (c *Cluster) Rejected() uint64 { return c.rejected }

// SnapshotInstalls counts full-state catch-ups of lagging replicas.
func (c *Cluster) SnapshotInstalls() uint64 { return c.installs }

func (c *Cluster) quorum() int { return len(c.reps)/2 + 1 }

// reachable reports whether replica i can exchange messages this slot.
// Partitions are islands of one: a partitioned replica reaches nobody.
func (c *Cluster) reachable(i int) bool { return c.slot >= c.reps[i].partUntil }

// connected counts the leader plus every alive follower it can reach — the
// acceptor set of a proposal.
func (c *Cluster) connected(leader int) int {
	if !c.reachable(leader) {
		return 1 // the leader reaches only itself
	}
	n := 1
	for i, r := range c.reps {
		if i != leader && r.alive && c.reachable(i) {
			n++
		}
	}
	return n
}

// checkPropose is the proposal precondition; Available mirrors it.
func (c *Cluster) checkPropose() error {
	if len(c.reps) == 1 {
		if !c.reps[0].alive {
			return ErrUnavailable
		}
		return nil
	}
	if c.leader < 0 || !c.reps[c.leader].alive {
		return ErrUnavailable
	}
	if c.connected(c.leader) < c.quorum() {
		return errNoQuorum
	}
	return nil
}

// Available reports whether a proposal would be accepted right now.
func (c *Cluster) Available() bool { return c.checkPropose() == nil }

// Propose appends one op to the replicated log. It either commits — the
// entry lands on the leader and every reachable alive replica, a majority
// by precondition — or rejects without mutating anything, so the log never
// holds an uncommitted entry and a new leader resumes from committed state
// alone. Single-replica mode applies straight to the state machine: no log,
// no retention, no allocation for place/flip/forget steady state.
func (c *Cluster) Propose(op Op) error {
	if err := c.checkPropose(); err != nil {
		c.rejected++
		return err
	}
	c.seq++
	if len(c.reps) == 1 {
		r := c.reps[0]
		r.st.apply(entry{Index: c.seq, Term: c.term, Op: op})
		r.snapIndex = c.seq
		r.snapTerm = c.term
		c.commits++
		return nil
	}
	e := entry{Index: c.seq, Term: c.term, Op: op}
	// The entry owns its slices: callers reuse scratch.
	if op.Shares != nil {
		e.Op.Shares = append([]float64(nil), op.Shares...)
	}
	if op.Batch != nil {
		e.Op.Batch = append([]uint32(nil), op.Batch...)
	}
	ld := c.reps[c.leader]
	ld.log = append(ld.log, e)
	ld.applyTo(c.seq)
	ld.compact(c.cfg.SnapshotEvery)
	for i, r := range c.reps {
		if i != c.leader && r.alive && c.reachable(i) && c.reachable(c.leader) {
			c.catchUp(i)
		}
	}
	c.commits++
	return nil
}

// catchUp brings replica j to the leader's committed frontier: a snapshot
// install when the leader has compacted past j's log, the missing log
// suffix otherwise.
func (c *Cluster) catchUp(j int) {
	ld := c.reps[c.leader]
	r := c.reps[j]
	if r.lastIndex() >= ld.lastIndex() {
		return
	}
	if r.lastIndex() < ld.snapIndex {
		// The leader no longer retains the entries j is missing.
		r.st = ld.st.clone()
		r.snapIndex = ld.lastIndex()
		r.snapTerm = ld.lastTerm()
		r.log = r.log[:0]
		c.installs++
		return
	}
	for i := range ld.log {
		e := &ld.log[i]
		if e.Index > r.lastIndex() {
			r.log = append(r.log, *e)
		}
	}
	r.applyTo(ld.lastIndex())
	r.compact(c.cfg.SnapshotEvery)
}

// catchUpAll heals every alive, reachable follower while the leader is
// functioning — the steady-state anti-entropy pass Tick runs.
func (c *Cluster) catchUpAll() {
	if c.leader < 0 || !c.reachable(c.leader) {
		return
	}
	for i, r := range c.reps {
		if i != c.leader && r.alive && c.reachable(i) {
			c.catchUp(i)
		}
	}
}

// Tick advances the cluster on the fleet's slot clock: a functioning leader
// renews its lease and heals laggards; a dead or cut-off leader's lease is
// waited out (that wait is the election timeout), after which the alive,
// connected replicas — if they form a majority — elect the longest-log
// replica, lowest index first, and bump the term.
func (c *Cluster) Tick(slot int64) {
	c.slot = slot
	if len(c.reps) == 1 {
		if c.reps[0].alive {
			c.leader = 0
		} else {
			c.leader = -1
		}
		return
	}
	if c.leader >= 0 && c.reps[c.leader].alive && c.connected(c.leader) >= c.quorum() {
		c.leaseUntil = slot + int64(c.cfg.LeaseSlots)
		c.catchUpAll()
		return
	}
	if slot < c.leaseUntil {
		return // the old lease must drain before anyone may take over
	}
	best := -1
	cands := 0
	for i, r := range c.reps {
		if !r.alive || !c.reachable(i) {
			continue
		}
		cands++
		if best < 0 {
			best = i
			continue
		}
		b := c.reps[best]
		if r.lastTerm() > b.lastTerm() ||
			(r.lastTerm() == b.lastTerm() && r.lastIndex() > b.lastIndex()) {
			best = i // longest log wins; iteration order gives lowest-index ties
		}
	}
	if cands < c.quorum() || best < 0 {
		c.leader = -1
		return
	}
	c.term++
	c.leader = best
	c.leaseUntil = slot + int64(c.cfg.LeaseSlots)
	c.seq = c.reps[best].lastIndex()
	c.elections++
	c.catchUpAll()
}

// Kill crashes replica i. A killed leader keeps its lease until expiry —
// the survivors cannot distinguish dead from slow, so the blackout a
// leader kill causes is bounded by LeaseSlots, not zero.
func (c *Cluster) Kill(i int) {
	c.reps[i].alive = false
	if len(c.reps) == 1 {
		c.leader = -1
	}
}

// Restart revives a crashed replica with its log intact (the log is the
// durable state); it rejoins as a follower and catches up on the next Tick
// or Propose that can reach it.
func (c *Cluster) Restart(i int) {
	c.reps[i].alive = true
	if len(c.reps) == 1 {
		c.leader = 0
	}
}

// Partition cuts replica i from every peer until the given slot
// (exclusive). A partitioned leader stalls the cluster until its lease
// expires, then the majority side elects around it; on heal the deposed
// replica is caught up like any laggard — its log holds only committed
// entries, so nothing needs undoing.
func (c *Cluster) Partition(i int, untilSlot int64) {
	if untilSlot > c.reps[i].partUntil {
		c.reps[i].partUntil = untilSlot
	}
}

// readReplica picks the replica reads are served from: the functioning
// leader when there is one, else the most-applied alive replica (a stale
// but safe view for the failover window), else nil.
func (c *Cluster) readReplica() *replica {
	if c.leader >= 0 && c.reps[c.leader].alive {
		return c.reps[c.leader]
	}
	var best *replica
	for _, r := range c.reps {
		if r.alive && (best == nil || r.st.Applied > best.st.Applied) {
			best = r
		}
	}
	return best
}

// Lookup resolves a session's owning shard from the read replica.
func (c *Cluster) Lookup(user uint32) (int, bool) {
	r := c.readReplica()
	if r == nil {
		return -1, false
	}
	shard, ok := r.st.Owner[user]
	return shard, ok
}

// Each visits every (session, shard) binding of the read replica. The
// iteration order is map order — callers needing determinism must sort.
func (c *Cluster) Each(fn func(user uint32, shard int)) {
	r := c.readReplica()
	if r == nil {
		return
	}
	for u, sh := range r.st.Owner {
		fn(u, sh)
	}
}

// sessions returns the read replica's binding count.
func (c *Cluster) sessions() int {
	r := c.readReplica()
	if r == nil {
		return 0
	}
	return len(r.st.Owner)
}

// Converged reports whether every alive replica has applied an identical
// state — the single-owner-map invariant after a heal.
func (c *Cluster) Converged() bool {
	var first *state
	for _, r := range c.reps {
		if !r.alive {
			continue
		}
		if first == nil {
			first = r.st
			continue
		}
		if !first.equal(r.st) {
			return false
		}
	}
	return true
}
