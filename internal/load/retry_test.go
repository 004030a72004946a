package load

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestRunLiveRetryPolicyTurnsOnNacks: an enabled RetryPolicy makes the
// clients NACK lost tiles and the server retransmit them; the zero policy
// sends no NACK at all.
func TestRunLiveRetryPolicyTurnsOnNacks(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 4, HorizonSlots: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const slot = 5 * time.Millisecond
	for _, tc := range []struct {
		name   string
		policy transport.RetryPolicy
		nacks  bool
	}{
		{"default", transport.DefaultRetryPolicy(slot), true},
		{"zero", transport.RetryPolicy{}, false},
	} {
		reg := obs.NewRegistry()
		rep, err := RunLive(w, LiveConfig{SlotDuration: slot, LossProb: 0.2, RetryPolicy: tc.policy, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed == 0 {
			t.Fatalf("%s: no session completed", tc.name)
		}
		nacks := reg.Counter("collabvr_server_nacks_total").Value()
		retx := reg.Counter("collabvr_server_retransmit_tiles_total").Value()
		if tc.nacks && (nacks == 0 || retx == 0) {
			t.Errorf("%s policy at 20%% loss: nacks %d, retransmitted tiles %d; want both > 0", tc.name, nacks, retx)
		}
		if !tc.nacks && (nacks != 0 || retx != 0) {
			t.Errorf("%s policy: nacks %d, retransmitted tiles %d; want 0", tc.name, nacks, retx)
		}
	}
}
