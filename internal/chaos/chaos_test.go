package chaos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

func mustParse(t *testing.T, src string) *Profile {
	t.Helper()
	p, err := parseProfile([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParseProfileValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty faults", `{"seed":1,"faults":[]}`, "no faults"},
		{"unknown kind", `{"seed":1,"faults":[{"kind":"gremlins","start_slot":0,"p":0.5}]}`, "unknown kind"},
		{"unknown field", `{"seed":1,"bogus":3,"faults":[{"kind":"loss","p":0.5}]}`, "bogus"},
		{"p out of range", `{"seed":1,"faults":[{"kind":"loss","p":1.5}]}`, "outside [0, 1]"},
		{"p zero", `{"seed":1,"faults":[{"kind":"corrupt","p":0}]}`, "never fires"},
		{"negative start", `{"seed":1,"faults":[{"kind":"blackout","start_slot":-2}]}`, "start_slot"},
		{"negative duration", `{"seed":1,"faults":[{"kind":"blackout","duration_slots":-1}]}`, "duration_slots"},
		{"cliff factor 1", `{"seed":1,"faults":[{"kind":"bandwidth-cliff","factor":1}]}`, "factor"},
		{"ge stuck good", `{"seed":1,"faults":[{"kind":"burst-loss","p_good_bad":0,"p_bad_good":0.2}]}`, "p_good_bad"},
		{"stall no delay", `{"seed":1,"faults":[{"kind":"server-stall"}]}`, "delay_ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseProfile([]byte(c.src))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}

	p := mustParse(t, `{
		"name": "mixed", "seed": 7,
		"faults": [
			{"kind": "burst-loss", "start_slot": 10, "duration_slots": 50, "p_good_bad": 0.1, "p_bad_good": 0.3},
			{"kind": "blackout", "start_slot": 100, "duration_slots": 20, "sessions": [2]},
			{"kind": "server-stall", "start_slot": 5, "duration_slots": 5, "delay_ms": 30}
		]}`)
	if !p.HasSessionFaults() || !p.HasServerFaults() {
		t.Fatalf("fault classification wrong: session=%v server=%v",
			p.HasSessionFaults(), p.HasServerFaults())
	}
	if got := p.EndSlot(); got != 120 {
		t.Fatalf("EndSlot = %d, want 120", got)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	p := mustParse(t, `{
		"seed": 42,
		"faults": [
			{"kind": "burst-loss", "start_slot": 0, "p_good_bad": 0.05, "p_bad_good": 0.3},
			{"kind": "reorder", "start_slot": 0, "p": 0.1},
			{"kind": "duplicate", "start_slot": 0, "p": 0.1},
			{"kind": "corrupt", "start_slot": 0, "p": 0.1}
		]}`)
	stream := func(session uint32) []transport.PacketFault {
		in := NewInjector(p, session)
		var out []transport.PacketFault
		for slot := 0; slot < 40; slot++ {
			in.Advance(slot)
			for k := 0; k < 25; k++ {
				out = append(out, in.PacketFault())
			}
		}
		return out
	}
	a, b := stream(3), stream(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Distinct sessions must see decorrelated streams.
	c := stream(4)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("sessions 3 and 4 produced identical fault streams")
	}
}

func TestGilbertElliottBurstStatistics(t *testing.T) {
	// p_good_bad=0.02, p_bad_good=0.25 -> stationary bad fraction
	// 0.02/(0.02+0.25) ~ 7.4%, mean burst length 1/0.25 = 4.
	p := mustParse(t, `{
		"seed": 9,
		"faults": [{"kind": "burst-loss", "p_good_bad": 0.02, "p_bad_good": 0.25}]}`)
	in := NewInjector(p, 1)
	in.Advance(0)
	const n = 200000
	drops, bursts, cur := 0, 0, 0
	var burstTotal int
	for i := 0; i < n; i++ {
		if in.Drop() {
			drops++
			cur++
		} else if cur > 0 {
			bursts++
			burstTotal += cur
			cur = 0
		}
	}
	frac := float64(drops) / n
	if frac < 0.05 || frac > 0.10 {
		t.Errorf("drop fraction %.4f outside [0.05, 0.10] (expect ~0.074)", frac)
	}
	mean := float64(burstTotal) / float64(bursts)
	if mean < 3.2 || mean > 4.8 {
		t.Errorf("mean burst length %.2f outside [3.2, 4.8] (expect ~4)", mean)
	}
}

func TestWindowBoundariesAndCapFactors(t *testing.T) {
	p := mustParse(t, `{
		"seed": 1,
		"faults": [
			{"kind": "blackout", "start_slot": 100, "duration_slots": 20},
			{"kind": "bandwidth-cliff", "start_slot": 110, "duration_slots": 40, "factor": 0.25},
			{"kind": "bandwidth-cliff", "start_slot": 130, "factor": 0.5}
		]}`)
	in := NewInjector(p, 1)
	check := func(slot int, blackout bool, cap_, simCap float64) {
		t.Helper()
		in.Advance(slot)
		if in.blackout() != blackout {
			t.Errorf("slot %d: Blackout = %v, want %v", slot, in.blackout(), blackout)
		}
		if got := in.CapFactor(); got != cap_ {
			t.Errorf("slot %d: CapFactor = %g, want %g", slot, got, cap_)
		}
		if got := in.SimCapFactor(); got != simCap {
			t.Errorf("slot %d: SimCapFactor = %g, want %g", slot, got, simCap)
		}
	}
	check(99, false, 1, 1)
	check(100, true, 1, 0) // blackout first slot; live cap untouched
	check(119, true, 0.25, 0)
	check(120, false, 0.25, 0.25) // blackout over, cliff still active
	check(135, false, 0.25*0.5, 0.25*0.5)
	check(149, false, 0.25*0.5, 0.25*0.5)
	check(150, false, 0.5, 0.5) // bounded cliff ends; open-ended one persists
	// Blackout drops every packet while active.
	in.Advance(105)
	for i := 0; i < 10; i++ {
		if !in.Drop() {
			t.Fatal("packet survived a blackout")
		}
		if !in.PacketFault().Drop {
			t.Fatal("PacketFault did not drop during blackout")
		}
	}
}

func TestSessionTargeting(t *testing.T) {
	p := mustParse(t, `{
		"seed": 1,
		"faults": [{"kind": "blackout", "sessions": [7]}]}`)
	if in := NewInjector(p, 3); in != nil {
		t.Fatal("untargeted session got a non-nil injector")
	}
	in := NewInjector(p, 7)
	if in == nil {
		t.Fatal("targeted session got a nil injector")
	}
	in.Advance(0)
	if !in.Drop() {
		t.Fatal("targeted session not blacked out")
	}
}

// TestNoSessionFaultNoAllocation: a profile whose faults are all server-,
// shard- or coordinator-scoped, or target other sessions, builds no
// per-session injector, and finding that out allocates nothing — the
// virtual engines ask once per arriving session.
func TestNoSessionFaultNoAllocation(t *testing.T) {
	p := mustParse(t, `{
		"seed": 1,
		"faults": [
			{"kind": "server-stall", "start_slot": 5, "duration_slots": 3, "delay_ms": 10},
			{"kind": "shard_drain", "start_slot": 10, "duration_slots": 30, "shard": 1},
			{"kind": "shard_kill", "start_slot": 50, "shard": 0},
			{"kind": "coord_kill", "start_slot": 12, "duration_slots": 20, "replica": 0},
			{"kind": "blackout", "start_slot": 0, "sessions": [7]}
		]}`)
	var in *Injector
	if allocs := testing.AllocsPerRun(100, func() { in = NewInjector(p, 3) }); allocs != 0 || in != nil {
		t.Fatalf("NewInjector for an untargeted session: %v allocations, injector %v; want 0 and nil", allocs, in)
	}
	if NewInjector(p, 7) == nil {
		t.Fatal("targeted session got a nil injector")
	}
}

func TestServerInjector(t *testing.T) {
	p := mustParse(t, `{
		"seed": 1,
		"faults": [
			{"kind": "server-stall", "start_slot": 10, "duration_slots": 5, "delay_ms": 30},
			{"kind": "server-stall", "start_slot": 12, "duration_slots": 5, "delay_ms": 20},
			{"kind": "slow-ack", "start_slot": 10, "duration_slots": 5, "delay_ms": 15}
		]}`)
	si := NewServerInjector(p)
	if si == nil {
		t.Fatal("profile with server faults produced nil ServerInjector")
	}
	si.Advance(9)
	if si.StallFor() != 0 || si.AckDelay() != 0 {
		t.Fatal("server faults fired before their window")
	}
	si.Advance(12)
	if got := si.StallFor(); got != 50*time.Millisecond {
		t.Errorf("overlapping stalls: StallFor = %v, want 50ms", got)
	}
	if got := si.AckDelay(); got != 15*time.Millisecond {
		t.Errorf("AckDelay = %v, want 15ms", got)
	}
	si.Advance(17)
	if si.StallFor() != 0 {
		t.Fatal("stall persisted past its window")
	}

	// A session-faults-only profile yields no server injector.
	p2 := mustParse(t, `{"seed":1,"faults":[{"kind":"loss","p":0.1}]}`)
	if NewServerInjector(p2) != nil {
		t.Fatal("session-only profile produced a ServerInjector")
	}
	if NewInjector(p, 1) != nil {
		t.Fatal("server-only profile produced a session Injector")
	}
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	in.Advance(5)
	if in.Drop() || in.blackout() {
		t.Fatal("nil Injector produced faults")
	}
	if pf := in.PacketFault(); pf != (transport.PacketFault{}) {
		t.Fatal("nil Injector produced a packet fault")
	}
	if in.CapFactor() != 1 || in.SimCapFactor() != 1 {
		t.Fatal("nil Injector scaled capacity")
	}
	var si *ServerInjector
	si.Advance(5)
	if si.StallFor() != 0 || si.AckDelay() != 0 {
		t.Fatal("nil ServerInjector produced delays")
	}
	var p *Profile
	if p.validate() != nil || p.HasSessionFaults() || p.HasServerFaults() || p.EndSlot() != 0 {
		t.Fatal("nil Profile misbehaved")
	}
	if NewInjector(nil, 1) != nil || NewServerInjector(nil) != nil {
		t.Fatal("nil profile produced injectors")
	}
}

// HasServerFaults reports whether any fault targets the server pipeline.
func (p *Profile) HasServerFaults() bool {
	if p == nil {
		return false
	}
	for i := range p.Faults {
		switch p.Faults[i].Kind {
		case FaultStall, FaultSlowACK:
			return true
		}
	}
	return false
}
