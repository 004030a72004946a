package chaos

import "testing"

func TestCoordFaultValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		ok   bool
	}{
		{"kill", `{"seed":1,"faults":[{"kind":"coord_kill","start_slot":10,"replica":0}]}`, true},
		{"kill-with-restart", `{"seed":1,"faults":[{"kind":"coord_kill","start_slot":10,"duration_slots":50,"replica":2}]}`, true},
		{"partition", `{"seed":1,"faults":[{"kind":"coord_partition","start_slot":10,"duration_slots":30,"replica":1}]}`, true},
		{"partition-open-ended", `{"seed":1,"faults":[{"kind":"coord_partition","start_slot":10,"replica":1}]}`, false},
		{"negative-replica", `{"seed":1,"faults":[{"kind":"coord_kill","start_slot":10,"replica":-1}]}`, false},
		{"kill-with-sessions", `{"seed":1,"faults":[{"kind":"coord_kill","start_slot":10,"replica":0,"sessions":[3]}]}`, false},
		{"unknown-field", `{"seed":1,"faults":[{"kind":"coord_kill","start_slot":10,"replicaa":0}]}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseProfile([]byte(tc.json))
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want validation error, got nil")
			}
		})
	}
}

func TestCoordFaultAccessors(t *testing.T) {
	p, err := parseProfile([]byte(`{
		"seed": 9,
		"faults": [
			{"kind": "coord_kill", "start_slot": 100, "replica": 2},
			{"kind": "shard_kill", "start_slot": 50, "shard": 1},
			{"kind": "coord_partition", "start_slot": 200, "duration_slots": 40, "replica": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasCoordFaults() {
		t.Fatal("HasCoordFaults = false, want true")
	}
	cf := p.CoordFaults()
	if len(cf) != 2 || cf[0].Kind != FaultCoordKill || cf[1].Kind != FaultCoordPartition {
		t.Fatalf("CoordFaults = %+v, want [coord_kill coord_partition]", cf)
	}
	if got := p.MaxReplica(); got != 2 {
		t.Fatalf("MaxReplica = %d, want 2", got)
	}
	// Coord faults are neither session, server, nor shard faults; the
	// shard_kill stays classified as a shard fault only.
	if p.HasSessionFaults() || p.HasServerFaults() {
		t.Fatalf("coord faults misclassified: session=%v server=%v",
			p.HasSessionFaults(), p.HasServerFaults())
	}
	if sf := p.ShardFaults(); len(sf) != 1 || sf[0].Kind != FaultShardKill {
		t.Fatalf("ShardFaults polluted by coord kinds: %+v", sf)
	}
	// Coord-only profiles must not build per-session or server injectors.
	coordOnly, err := parseProfile([]byte(`{"seed":1,"faults":[{"kind":"coord_kill","start_slot":5,"replica":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if inj := NewInjector(coordOnly, 7); inj != nil {
		t.Fatal("NewInjector built an injector from a coord-only profile")
	}
	if si := NewServerInjector(coordOnly); si != nil {
		t.Fatal("NewServerInjector built an injector from a coord-only profile")
	}
	var nilP *Profile
	if nilP.HasCoordFaults() || nilP.MaxReplica() != -1 {
		t.Fatal("nil profile coord accessors misbehave")
	}
}

func TestLoadCoordKillExampleProfile(t *testing.T) {
	p, err := LoadProfile("../../examples/chaos/coordkill.json")
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasCoordFaults() || !p.HasShardFaults() || p.HasSessionFaults() || p.HasServerFaults() {
		t.Fatalf("coordkill.json fault classes wrong: coord=%v shard=%v session=%v server=%v",
			p.HasCoordFaults(), p.HasShardFaults(), p.HasSessionFaults(), p.HasServerFaults())
	}
	if p.MaxReplica() != 1 {
		t.Fatalf("coordkill.json MaxReplica = %d, want 1", p.MaxReplica())
	}
}
