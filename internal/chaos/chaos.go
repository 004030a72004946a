package chaos

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/randsrc"
	"repro/internal/transport"
)

// mixSeed derives the RNG seed of one (session, fault) pair from the profile
// seed with a splitmix64-style finalizer, so campaigns are deterministic yet
// streams are decorrelated across sessions and faults.
func mixSeed(seed int64, session uint32, idx int) int64 {
	z := uint64(seed) ^ 0x9E3779B97F4A7C15
	z ^= (uint64(session) + 1) * 0xBF58476D1CE4E5B9
	z ^= (uint64(idx) + 1) * 0x94D049BB133111EB
	z ^= z >> 31
	z *= 0xD6E8FEB86659FD93
	z ^= z >> 27
	return int64(z)
}

// faultRT is the per-session runtime state of one scheduled fault.
type faultRT struct {
	f   *Fault
	rng *rand.Rand
	bad bool // Gilbert-Elliott chain state (burst-loss only)
}

// Injector evaluates a profile's delivery-path faults for one session. It is
// safe for concurrent use (the sender consults it per packet while the slot
// scheduler advances the clock) and all methods are nil-receiver-safe, so a
// disabled session simply carries a nil *Injector.
type Injector struct {
	mu      sync.Mutex
	session uint32
	slot    int
	faults  []*faultRT
}

// NewInjector builds the per-session injector. It returns nil when the
// profile has no delivery-path faults targeting the session — the zero-cost
// disabled state, which allocates nothing.
func NewInjector(p *Profile, session uint32) *Injector {
	if p == nil {
		return nil
	}
	var inj *Injector
	for i := range p.Faults {
		f := &p.Faults[i]
		switch f.Kind {
		case FaultStall, FaultSlowACK, FaultShardKill, FaultShardDrain, FaultShardDegrade,
			FaultCoordKill, FaultCoordPartition:
			continue
		}
		if !f.appliesTo(session) {
			continue
		}
		if inj == nil {
			inj = &Injector{session: session}
		}
		inj.faults = append(inj.faults, &faultRT{
			f:   f,
			rng: randsrc.NewRand(mixSeed(p.Seed, session, i)),
		})
	}
	return inj
}

// Advance moves the injector's slot clock. Fault windows are evaluated
// against this slot until the next Advance.
func (in *Injector) Advance(slot int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.slot = slot
	in.mu.Unlock()
}

// dropLocked evaluates the drop-class faults (blackout, burst-loss, iid
// loss) for one decision, stepping Gilbert-Elliott chains as a side effect.
func (in *Injector) dropLocked() bool {
	drop := false
	for _, rt := range in.faults {
		if !rt.f.active(in.slot) {
			continue
		}
		switch rt.f.Kind {
		case FaultBlackout:
			drop = true
		case FaultLoss:
			if rt.rng.Float64() < rt.f.P {
				drop = true
			}
		case FaultBurstLoss:
			// Transition, then emit: the chain is stepped once per
			// decision so burst lengths follow geometric(PBadGood).
			if rt.bad {
				if rt.rng.Float64() < rt.f.PBadGood {
					rt.bad = false
				}
			} else if rt.rng.Float64() < rt.f.PGoodBad {
				rt.bad = true
			}
			p := rt.f.PGood
			if rt.bad {
				p = rt.f.PBad
				if p == 0 {
					p = 1 // classic GE: the bad state loses everything
				}
			}
			if p > 0 && rt.rng.Float64() < p {
				drop = true
			}
		}
	}
	return drop
}

// Drop evaluates one drop decision (a packet on the live path, a frame in
// the virtual-time engine). Each call advances the fault RNGs.
func (in *Injector) Drop() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dropLocked()
}

// PacketFault implements transport.FaultInjector: the full disposition of
// one outgoing datagram, combining drop-, reorder-, duplicate- and
// corrupt-class faults active this slot.
func (in *Injector) PacketFault() transport.PacketFault {
	if in == nil {
		return transport.PacketFault{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	pf := transport.PacketFault{Drop: in.dropLocked()}
	for _, rt := range in.faults {
		if !rt.f.active(in.slot) {
			continue
		}
		switch rt.f.Kind {
		case FaultReorder:
			if rt.rng.Float64() < rt.f.P {
				pf.Hold = true
			}
		case FaultDuplicate:
			if rt.rng.Float64() < rt.f.P {
				pf.Duplicate = true
			}
		case FaultCorrupt:
			if rt.rng.Float64() < rt.f.P {
				// 1..255 so the XOR always changes the byte.
				pf.CorruptXOR = byte(rt.rng.Intn(255)) + 1
				pf.CorruptPos = rt.rng.Intn(1 << 16)
			}
		}
	}
	return pf
}

// blackout reports whether a blackout window covers the current slot. It
// consumes no randomness.
func (in *Injector) blackout() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rt := range in.faults {
		if rt.f.Kind == FaultBlackout && rt.f.active(in.slot) {
			return true
		}
	}
	return false
}

// CapFactor returns the product of active bandwidth-cliff factors (1 when
// none are active). Blackouts are excluded: the live path models them as
// total loss, not as a zero-rate shaper, because a zero-rate token bucket
// would park the sender in hour-long sleeps instead of losing packets.
func (in *Injector) CapFactor() float64 {
	if in == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	factor := 1.0
	for _, rt := range in.faults {
		if rt.f.Kind == FaultBandwidth && rt.f.active(in.slot) {
			factor *= rt.f.Factor
		}
	}
	return factor
}

// SimCapFactor is CapFactor for the virtual-time engine, where a blackout
// IS modeled as zero capacity (there is no wire to lose packets on).
func (in *Injector) SimCapFactor() float64 {
	if in == nil {
		return 1
	}
	if in.blackout() {
		return 0
	}
	return in.CapFactor()
}

// ServerInjector evaluates the profile's server-pipeline faults
// (server-stall, slow-ack). Methods are nil-receiver-safe.
type ServerInjector struct {
	mu     sync.Mutex
	slot   int
	faults []*Fault
}

// NewServerInjector builds the server-side injector, or nil when the profile
// has no server faults.
func NewServerInjector(p *Profile) *ServerInjector {
	if p == nil {
		return nil
	}
	si := &ServerInjector{}
	for i := range p.Faults {
		f := &p.Faults[i]
		switch f.Kind {
		case FaultStall, FaultSlowACK:
			si.faults = append(si.faults, f)
		}
	}
	if len(si.faults) == 0 {
		return nil
	}
	return si
}

// Advance moves the server injector's slot clock.
func (si *ServerInjector) Advance(slot int) {
	if si == nil {
		return
	}
	si.mu.Lock()
	si.slot = slot
	si.mu.Unlock()
}

func (si *ServerInjector) sum(kind FaultKind) time.Duration {
	if si == nil {
		return 0
	}
	si.mu.Lock()
	defer si.mu.Unlock()
	var total float64
	for _, f := range si.faults {
		if f.Kind == kind && f.active(si.slot) {
			total += f.DelayMs
		}
	}
	return time.Duration(total * float64(time.Millisecond))
}

// StallFor returns how long the slot pipeline should stall this slot.
func (si *ServerInjector) StallFor() time.Duration { return si.sum(FaultStall) }

// AckDelay returns the per-message control-plane processing delay this slot.
func (si *ServerInjector) AckDelay() time.Duration { return si.sum(FaultSlowACK) }

var _ transport.FaultInjector = (*Injector)(nil)
