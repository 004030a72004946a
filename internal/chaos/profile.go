// Package chaos is the seeded, deterministic fault-injection layer of the
// collabvr stack. The paper's evaluation assumes well-behaved traces with
// piecewise-constant bandwidth; chaos exists to provoke exactly the regimes
// the QoE model says hurt most — missed FoV coverage and the M/M/1 delay
// blowup near capacity — so the resilience path (adaptive retransmission,
// SLO-driven circuit breaking, graceful drain) can be exercised and
// regression-tested instead of trusted.
//
// A campaign is described by a Profile: a seed plus a list of scheduled
// Faults on the slot clock. Every random decision derives from the profile
// seed, the session ID and the fault index, so the same profile produces the
// same fault sequence run after run (the virtual-time engine is bit-stable;
// the live engine is statistically stable).
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// FaultKind enumerates the injectable fault types.
type FaultKind string

const (
	// FaultBurstLoss is Gilbert-Elliott two-state burst loss: a Markov
	// chain alternates between a good state (loss PGood, default 0) and a
	// bad state (loss PBad, default 1), with transition probabilities
	// PGoodBad and PBadGood per decision.
	FaultBurstLoss FaultKind = "burst-loss"
	// FaultLoss is i.i.d. loss with probability P.
	FaultLoss FaultKind = "loss"
	// FaultReorder holds a packet behind its successor with probability P.
	FaultReorder FaultKind = "reorder"
	// FaultDuplicate duplicates a packet with probability P.
	FaultDuplicate FaultKind = "duplicate"
	// FaultCorrupt flips one random byte of a packet with probability P.
	FaultCorrupt FaultKind = "corrupt"
	// FaultBandwidth is a bandwidth cliff: the session's capacity is
	// multiplied by Factor (0 < Factor < 1) for the window.
	FaultBandwidth FaultKind = "bandwidth-cliff"
	// FaultBlackout is a full partition: every packet in the window is
	// lost (the virtual-time engine models it as zero capacity).
	FaultBlackout FaultKind = "blackout"
	// FaultStall freezes the server's slot pipeline for DelayMs each slot
	// of the window (decision-loop stall injection).
	FaultStall FaultKind = "server-stall"
	// FaultSlowACK delays the server's control-plane ACK processing by
	// DelayMs per message during the window (estimator staleness).
	FaultSlowACK FaultKind = "slow-ack"
	// FaultShardKill abruptly kills a whole fleet shard at StartSlot: its
	// slot pipeline stops and every session it hosts must be re-placed on
	// the surviving shards (DurationSlots is ignored — dead stays dead).
	// Only fleet engines honor it; single-server runs reject the profile
	// at wiring time, not parse time, so profiles stay portable.
	FaultShardKill FaultKind = "shard_kill"
	// FaultShardDrain puts a fleet shard into draining at StartSlot: it
	// stops accepting placements and hands its sessions off to the rest of
	// the fleet, spread across DurationSlots (0 = all at once), after which
	// the shard is out of rotation.
	FaultShardDrain FaultKind = "shard_drain"
	// FaultShardDegrade multiplies one fleet shard's delivery capacity by
	// Factor (0 < Factor < 1) for the window — a brownout rather than an
	// outage: the shard keeps its sessions but pages its SLOs, which is the
	// signal the SLO-pressure evacuation loop acts on. Only fleet engines
	// honor it.
	FaultShardDegrade FaultKind = "shard_degrade"
	// FaultCoordKill crashes one fleet coordinator replica at StartSlot
	// (DurationSlots 0 = permanently; > 0 restarts it, log intact, after
	// the window). Killing the leader stalls ownership mutations until its
	// lease drains and the survivors elect. Only coord-enabled fleet
	// engines honor it.
	FaultCoordKill FaultKind = "coord_kill"
	// FaultCoordPartition cuts one coordinator replica off from its peers
	// for DurationSlots (must be > 0; the partition heals by the slot
	// clock). Partitioning the leader forces a term bump on the majority
	// side — the epoch fencing path.
	FaultCoordPartition FaultKind = "coord_partition"
)

// Fault is one scheduled fault window on the slot clock.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// StartSlot is the first slot the fault is active.
	StartSlot int `json:"start_slot"`
	// DurationSlots bounds the window (0 = open-ended).
	DurationSlots int `json:"duration_slots,omitempty"`
	// Sessions limits the fault to these session IDs (empty = all).
	Sessions []uint32 `json:"sessions,omitempty"`

	// P is the per-decision probability for loss/reorder/duplicate/corrupt.
	P float64 `json:"p,omitempty"`
	// Gilbert-Elliott parameters (burst-loss).
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	PGood    float64 `json:"p_good,omitempty"`
	PBad     float64 `json:"p_bad,omitempty"`
	// Factor is the capacity multiplier of a bandwidth cliff.
	Factor float64 `json:"factor,omitempty"`
	// DelayMs parametrizes server-stall and slow-ack injection.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Shard is the fleet shard index targeted by shard_kill/shard_drain.
	Shard int `json:"shard,omitempty"`
	// Replica is the coordinator replica index targeted by
	// coord_kill/coord_partition.
	Replica int `json:"replica,omitempty"`
}

// active reports whether the fault window covers the slot.
func (f *Fault) active(slot int) bool {
	if slot < f.StartSlot {
		return false
	}
	return f.DurationSlots <= 0 || slot < f.StartSlot+f.DurationSlots
}

// appliesTo reports whether the fault targets the session.
func (f *Fault) appliesTo(session uint32) bool {
	if len(f.Sessions) == 0 {
		return true
	}
	for _, s := range f.Sessions {
		if s == session {
			return true
		}
	}
	return false
}

// prob01 validates a probability field.
func prob01(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%s = %g outside [0, 1]", name, v)
	}
	return nil
}

// validate checks one fault's parameters; i is its index for error text.
func (f *Fault) validate(i int) error {
	fail := func(err error) error {
		return fmt.Errorf("chaos: fault %d (%s): %w", i, f.Kind, err)
	}
	if f.StartSlot < 0 {
		return fail(fmt.Errorf("start_slot %d < 0", f.StartSlot))
	}
	if f.DurationSlots < 0 {
		return fail(fmt.Errorf("duration_slots %d < 0", f.DurationSlots))
	}
	switch f.Kind {
	case FaultBurstLoss:
		for _, c := range []struct {
			name string
			v    float64
		}{{"p_good_bad", f.PGoodBad}, {"p_bad_good", f.PBadGood}, {"p_good", f.PGood}, {"p_bad", f.PBad}} {
			if err := prob01(c.name, c.v); err != nil {
				return fail(err)
			}
		}
		if f.PGoodBad == 0 {
			return fail(fmt.Errorf("p_good_bad must be > 0 (the chain never leaves the good state)"))
		}
	case FaultLoss, FaultReorder, FaultDuplicate, FaultCorrupt:
		if err := prob01("p", f.P); err != nil {
			return fail(err)
		}
		if f.P == 0 {
			return fail(fmt.Errorf("p must be > 0 (the fault never fires)"))
		}
	case FaultBandwidth:
		if f.Factor <= 0 || f.Factor >= 1 {
			return fail(fmt.Errorf("factor %g outside (0, 1)", f.Factor))
		}
	case FaultBlackout:
		// No parameters.
	case FaultStall, FaultSlowACK:
		if f.DelayMs <= 0 || f.DelayMs > 5000 {
			return fail(fmt.Errorf("delay_ms %g outside (0, 5000]", f.DelayMs))
		}
	case FaultShardKill, FaultShardDrain, FaultShardDegrade:
		if f.Shard < 0 {
			return fail(fmt.Errorf("shard %d < 0", f.Shard))
		}
		if len(f.Sessions) > 0 {
			return fail(fmt.Errorf("sessions list is not applicable (the fault targets a whole shard)"))
		}
		if f.Kind == FaultShardKill && f.DurationSlots != 0 {
			return fail(fmt.Errorf("duration_slots %d invalid (a killed shard never comes back)", f.DurationSlots))
		}
		if f.Kind == FaultShardDegrade && (f.Factor <= 0 || f.Factor >= 1) {
			return fail(fmt.Errorf("factor %g outside (0, 1)", f.Factor))
		}
	case FaultCoordKill, FaultCoordPartition:
		if f.Replica < 0 {
			return fail(fmt.Errorf("replica %d < 0", f.Replica))
		}
		if len(f.Sessions) > 0 {
			return fail(fmt.Errorf("sessions list is not applicable (the fault targets a coordinator replica)"))
		}
		if f.Kind == FaultCoordPartition && f.DurationSlots <= 0 {
			return fail(fmt.Errorf("duration_slots %d invalid (a partition must heal; use coord_kill for a crash)", f.DurationSlots))
		}
	default:
		return fail(fmt.Errorf("unknown kind"))
	}
	return nil
}

// Profile is a complete chaos campaign description.
type Profile struct {
	// Name labels reports and logs.
	Name string `json:"name,omitempty"`
	// Seed roots every random decision of the campaign.
	Seed int64 `json:"seed"`
	// Faults are the scheduled fault windows.
	Faults []Fault `json:"faults"`
}

// validate checks every fault; a nil profile is valid (no chaos).
func (p *Profile) validate() error {
	if p == nil {
		return nil
	}
	if len(p.Faults) == 0 {
		return fmt.Errorf("chaos: profile %q has no faults", p.Name)
	}
	for i := range p.Faults {
		if err := p.Faults[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// parseProfile decodes and validates a JSON profile. Unknown fields are
// rejected so a typoed knob fails loudly instead of silently injecting
// nothing.
func parseProfile(data []byte) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(newByteReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parse profile: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadProfile reads and parses a profile file.
func LoadProfile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return p, nil
}

// HasSessionFaults reports whether any fault targets the delivery path
// (everything except server-stall/slow-ack and the shard-scoped kinds).
func (p *Profile) HasSessionFaults() bool {
	if p == nil {
		return false
	}
	for i := range p.Faults {
		switch p.Faults[i].Kind {
		case FaultStall, FaultSlowACK, FaultShardKill, FaultShardDrain, FaultShardDegrade,
			FaultCoordKill, FaultCoordPartition:
		default:
			return true
		}
	}
	return false
}

// HasShardFaults reports whether any fault targets a whole fleet shard.
func (p *Profile) HasShardFaults() bool {
	return p != nil && len(p.ShardFaults()) > 0
}

// ShardFaults returns the shard-scoped faults (shard_kill, shard_drain,
// shard_degrade) in profile order. Fleet engines schedule these directly;
// session and server injectors ignore them.
func (p *Profile) ShardFaults() []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for i := range p.Faults {
		switch p.Faults[i].Kind {
		case FaultShardKill, FaultShardDrain, FaultShardDegrade:
			out = append(out, p.Faults[i])
		}
	}
	return out
}

// MaxShard returns the highest shard index any shard fault targets (-1 when
// the profile has none); fleet engines validate it against the shard count.
func (p *Profile) MaxShard() int {
	maxShard := -1
	for _, f := range p.ShardFaults() {
		if f.Shard > maxShard {
			maxShard = f.Shard
		}
	}
	return maxShard
}

// HasCoordFaults reports whether any fault targets a coordinator replica.
func (p *Profile) HasCoordFaults() bool {
	return p != nil && len(p.CoordFaults()) > 0
}

// CoordFaults returns the coordinator-replica faults (coord_kill,
// coord_partition) in profile order. Coord-enabled fleet engines schedule
// these on the slot clock; everything else ignores them.
func (p *Profile) CoordFaults() []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for i := range p.Faults {
		switch p.Faults[i].Kind {
		case FaultCoordKill, FaultCoordPartition:
			out = append(out, p.Faults[i])
		}
	}
	return out
}

// MaxReplica returns the highest coordinator replica index any coord fault
// targets (-1 when the profile has none); fleet engines validate it against
// the configured replica count.
func (p *Profile) MaxReplica() int {
	maxReplica := -1
	for _, f := range p.CoordFaults() {
		if f.Replica > maxReplica {
			maxReplica = f.Replica
		}
	}
	return maxReplica
}

// EndSlot returns the last slot any bounded fault is active (open-ended
// faults are ignored); campaign reports use it to place the recovery window.
func (p *Profile) EndSlot() int {
	if p == nil {
		return 0
	}
	end := 0
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.DurationSlots > 0 && f.StartSlot+f.DurationSlots > end {
			end = f.StartSlot + f.DurationSlots
		}
	}
	return end
}

// Summary renders the fault schedule for -chaos-check: one line per fault
// with its window, its session filter and the parameters its kind reads.
func (p *Profile) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos profile %q: seed %d, %d fault(s)\n", p.Name, p.Seed, len(p.Faults))
	for i := range p.Faults {
		f := &p.Faults[i]
		fmt.Fprintf(&b, "  fault %d: %-15s start slot %d", i, f.Kind, f.StartSlot)
		if f.DurationSlots > 0 {
			fmt.Fprintf(&b, ", %d slots", f.DurationSlots)
		} else {
			b.WriteString(", open-ended")
		}
		if len(f.Sessions) > 0 {
			fmt.Fprintf(&b, ", sessions %v", f.Sessions)
		}
		switch f.Kind {
		case FaultBurstLoss:
			fmt.Fprintf(&b, ", p_gb %g p_bg %g p_good %g p_bad %g", f.PGoodBad, f.PBadGood, f.PGood, f.PBad)
		case FaultLoss, FaultReorder, FaultDuplicate, FaultCorrupt:
			fmt.Fprintf(&b, ", p %g", f.P)
		case FaultBandwidth:
			fmt.Fprintf(&b, ", factor %g", f.Factor)
		case FaultStall, FaultSlowACK:
			fmt.Fprintf(&b, ", delay %g ms", f.DelayMs)
		case FaultShardKill, FaultShardDrain:
			fmt.Fprintf(&b, ", shard %d", f.Shard)
		case FaultShardDegrade:
			fmt.Fprintf(&b, ", shard %d, factor %g", f.Shard, f.Factor)
		case FaultCoordKill, FaultCoordPartition:
			fmt.Fprintf(&b, ", replica %d", f.Replica)
		}
		b.WriteByte('\n')
	}
	b.WriteString("profile OK\n")
	return b.String()
}

// byteReader is a minimal io.Reader over a byte slice (avoids importing
// bytes just for NewReader).
type byteReader struct {
	data []byte
	off  int
}

func newByteReader(data []byte) *byteReader { return &byteReader{data: data} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, errEOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

var errEOF = fmt.Errorf("EOF")
