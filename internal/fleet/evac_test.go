package fleet

import "testing"

func TestEvacuatorHysteresis(t *testing.T) {
	e := NewEvacuator(EvacConfig{
		Enabled: true, WindowSlots: 10, EnterPressure: 0.3, ExitPressure: 0.1,
		CooldownSlots: 50, BatchSessions: 2, MinSamples: 5,
	}, 2)

	// Below MinSamples: no action no matter the pressure.
	if e.Update(1, 0, 1.0, 3) {
		t.Fatal("fired below MinSamples")
	}
	// Under the enter threshold: latch stays off.
	if e.Update(1, 10, 0.29, 10) || e.evacuating(1) {
		t.Fatal("latched below EnterPressure")
	}
	// Crossing enter: latch + first batch.
	if !e.Update(1, 20, 0.35, 10) || !e.evacuating(1) {
		t.Fatal("did not fire at EnterPressure")
	}
	// Still hot but inside cooldown: latched, no batch.
	if e.Update(1, 40, 0.9, 10) {
		t.Fatal("fired inside cooldown")
	}
	// Pressure in the hysteresis band (exit < p < enter): still evacuating.
	if !e.Update(1, 70, 0.2, 10) {
		t.Fatal("band pressure after cooldown should fire (latch held)")
	}
	if !e.evacuating(1) {
		t.Fatal("latch dropped inside the band")
	}
	// Below exit: latch clears, no batch.
	if e.Update(1, 130, 0.05, 10) || e.evacuating(1) {
		t.Fatal("latch survived ExitPressure")
	}
	// Re-entering needs the full enter threshold again.
	if e.Update(1, 140, 0.2, 10) {
		t.Fatal("band pressure re-latched without crossing EnterPressure")
	}
	if got := e.batchCount(); got != 2 {
		t.Fatalf("batches = %d, want 2", got)
	}
	// The untouched shard never latched.
	if e.evacuating(0) {
		t.Fatal("shard 0 latched")
	}
}

func TestEvacuatorSessionCooldown(t *testing.T) {
	e := NewEvacuator(EvacConfig{Enabled: true, CooldownSlots: 100}, 1)
	if !e.allowSession(7, 0) {
		t.Fatal("fresh session blocked")
	}
	e.noteMigration(7, 10)
	if e.allowSession(7, 50) {
		t.Fatal("session re-migratable inside cooldown")
	}
	if !e.allowSession(7, 110) {
		t.Fatal("session still blocked after cooldown")
	}
	e.forget(7)
	if !e.allowSession(7, 0) {
		t.Fatal("forgotten session blocked")
	}
	if e.movedCount() != 1 {
		t.Fatalf("moved = %d, want 1", e.movedCount())
	}
}

func TestEvacuatorDisabled(t *testing.T) {
	if NewEvacuator(EvacConfig{}, 3) != nil {
		t.Fatal("disabled config built a controller")
	}
	var e *Evacuator
	if e.Update(0, 0, 1, 100) || e.evacuating(0) || e.allowSession(1, 0) || e.batchCount() != 0 || e.movedCount() != 0 {
		t.Fatal("nil evacuator not inert")
	}
	e.noteMigration(1, 0)
	e.forget(1)
}
