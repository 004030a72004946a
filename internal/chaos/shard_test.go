package chaos

import "testing"

func TestShardFaultValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		ok   bool
	}{
		{"kill", `{"seed":1,"faults":[{"kind":"shard_kill","start_slot":10,"shard":1}]}`, true},
		{"drain", `{"seed":1,"faults":[{"kind":"shard_drain","start_slot":10,"duration_slots":30,"shard":0}]}`, true},
		{"drain-instant", `{"seed":1,"faults":[{"kind":"shard_drain","start_slot":10,"shard":2}]}`, true},
		{"degrade", `{"seed":1,"faults":[{"kind":"shard_degrade","start_slot":10,"duration_slots":30,"shard":1,"factor":0.1}]}`, true},
		{"degrade-no-factor", `{"seed":1,"faults":[{"kind":"shard_degrade","start_slot":10,"shard":1}]}`, false},
		{"degrade-factor-one", `{"seed":1,"faults":[{"kind":"shard_degrade","start_slot":10,"shard":1,"factor":1}]}`, false},
		{"degrade-with-sessions", `{"seed":1,"faults":[{"kind":"shard_degrade","start_slot":10,"shard":1,"factor":0.5,"sessions":[2]}]}`, false},
		{"kill-negative-shard", `{"seed":1,"faults":[{"kind":"shard_kill","start_slot":10,"shard":-1}]}`, false},
		{"kill-with-duration", `{"seed":1,"faults":[{"kind":"shard_kill","start_slot":10,"duration_slots":5,"shard":0}]}`, false},
		{"kill-with-sessions", `{"seed":1,"faults":[{"kind":"shard_kill","start_slot":10,"shard":0,"sessions":[3]}]}`, false},
		{"unknown-field", `{"seed":1,"faults":[{"kind":"shard_kill","start_slot":10,"shardd":0}]}`, false},
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

func TestShardFaultAccessors(t *testing.T) {
	p, err := parseProfile([]byte(`{
		"seed": 9,
		"faults": [
			{"kind": "shard_kill", "start_slot": 100, "shard": 2},
			{"kind": "blackout", "start_slot": 50, "duration_slots": 10},
			{"kind": "shard_drain", "start_slot": 200, "duration_slots": 40, "shard": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasShardFaults() {
		t.Fatal("HasShardFaults = false, want true")
	}
	sf := p.ShardFaults()
	if len(sf) != 2 || sf[0].Kind != FaultShardKill || sf[1].Kind != FaultShardDrain {
		t.Fatalf("ShardFaults = %+v, want [shard_kill shard_drain]", sf)
	}
	if got := p.MaxShard(); got != 2 {
		t.Fatalf("MaxShard = %d, want 2", got)
	}
	// The blackout still counts as a session fault; the shard kinds do not.
	if !p.HasSessionFaults() {
		t.Fatal("HasSessionFaults = false, want true (blackout present)")
	}
	shardOnly, err := parseProfile([]byte(`{"seed":1,"faults":[{"kind":"shard_kill","start_slot":5,"shard":0},{"kind":"shard_degrade","start_slot":5,"duration_slots":10,"shard":0,"factor":0.2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if shardOnly.HasSessionFaults() {
		t.Fatal("HasSessionFaults = true for a shard-only profile")
	}
	if shardOnly.HasServerFaults() {
		t.Fatal("HasServerFaults = true for a shard-only profile")
	}
	// Shard faults must never build per-session or server injectors.
	if inj := NewInjector(shardOnly, 7); inj != nil {
		t.Fatal("NewInjector built an injector from a shard-only profile")
	}
	if si := NewServerInjector(shardOnly); si != nil {
		t.Fatal("NewServerInjector built an injector from a shard-only profile")
	}
	if p.MaxShard() != 2 {
		t.Fatalf("MaxShard changed: %d", p.MaxShard())
	}
	var nilP *Profile
	if nilP.HasShardFaults() || nilP.MaxShard() != -1 {
		t.Fatal("nil profile shard accessors misbehave")
	}
}

func TestLoadFleetExampleProfile(t *testing.T) {
	p, err := LoadProfile("../../examples/chaos/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasShardFaults() || p.HasSessionFaults() || p.HasServerFaults() {
		t.Fatalf("fleet.json fault classes wrong: shard=%v session=%v server=%v",
			p.HasShardFaults(), p.HasSessionFaults(), p.HasServerFaults())
	}
}
