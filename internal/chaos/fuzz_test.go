package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzHorizon is how many slots FuzzChaosProfile walks one by one before it
// jumps to the window edges (a profile may schedule a fault at any slot).
const fuzzHorizon = 256

// FuzzChaosProfile feeds arbitrary bytes to parseProfile — the one place
// operator-written JSON enters the fault layer. It must never panic; a
// profile it accepts must survive marshal → parse unchanged (so a profile
// inlined into a report or a bench config is the profile that ran); and
// everything the engines call on an accepted profile — the shard and
// coordinator views, and the session and server injectors advanced over a
// horizon — must not panic either. The seed corpus is the shipped examples.
func FuzzChaosProfile(f *testing.F) {
	examples, err := filepath.Glob("../../examples/chaos/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example profiles to seed from: %v", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := parseProfile(data); err != nil {
			f.Fatalf("%s: shipped example rejected: %v", path, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed":-1,"faults":[{"kind":"burst-loss","start_slot":9223372036854775807,"duration_slots":9223372036854775807,"p_good_bad":1,"sessions":[0,4294967295]}]}`))
	f.Add([]byte(`{"faults":[]}`))
	f.Add([]byte(`{"faults":[{"kind":"shard_kill","shard":1e3}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := parseProfile(data)
		if err != nil {
			if p != nil {
				t.Fatalf("rejected input returned a profile: %v", err)
			}
			return
		}
		if err := p.validate(); err != nil {
			t.Fatalf("accepted profile fails its own validation: %v", err)
		}

		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted profile does not marshal: %v", err)
		}
		q, err := parseProfile(wire)
		if err != nil {
			t.Fatalf("marshalled profile rejected: %v\n%s", err, wire)
		}
		again, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, again) {
			t.Fatalf("profile changed across marshal → parse:\n%s\n%s", wire, again)
		}

		shard, coord := p.ShardFaults(), p.CoordFaults()
		if (p.MaxShard() >= 0) != (len(shard) > 0) || p.HasShardFaults() != (len(shard) > 0) {
			t.Fatalf("MaxShard %d / HasShardFaults %v disagree with %d shard faults", p.MaxShard(), p.HasShardFaults(), len(shard))
		}
		if (p.MaxReplica() >= 0) != (len(coord) > 0) || p.HasCoordFaults() != (len(coord) > 0) {
			t.Fatalf("MaxReplica %d / HasCoordFaults %v disagree with %d coord faults", p.MaxReplica(), p.HasCoordFaults(), len(coord))
		}
		p.EndSlot()
		p.HasSessionFaults()
		p.HasServerFaults()

		// The horizon, then every window edge beyond it (sums that leave the
		// slot clock's range wrap; the engines only compare against them).
		slots := make([]int, 0, fuzzHorizon+4*len(p.Faults))
		for slot := 0; slot < fuzzHorizon; slot++ {
			slots = append(slots, slot)
		}
		for _, ft := range p.Faults {
			end := ft.StartSlot + ft.DurationSlots
			slots = append(slots, ft.StartSlot-1, ft.StartSlot, end-1, end)
		}

		server := NewServerInjector(p)
		var injectors []*Injector
		for _, session := range []uint32{0, 1, 1<<32 - 1} {
			injectors = append(injectors, NewInjector(p, session))
		}
		for _, slot := range slots {
			server.Advance(slot)
			if server.StallFor() < 0 || server.AckDelay() < 0 {
				t.Fatalf("slot %d: negative server delay", slot)
			}
			for _, in := range injectors {
				in.Advance(slot)
				in.Drop()
				in.blackout()
				in.PacketFault()
				if c := in.CapFactor(); c < 0 || c > 1 {
					t.Fatalf("slot %d: capacity factor %g outside [0, 1]", slot, c)
				}
				if c := in.SimCapFactor(); c < 0 || c > 1 {
					t.Fatalf("slot %d: sim capacity factor %g outside [0, 1]", slot, c)
				}
			}
		}
	})
}
