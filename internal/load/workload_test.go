package load

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nettrace"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, shape := range []Shape{Steady, Poisson, MMPP, Flash, Diurnal} {
		cfg := Config{Shape: shape, Seed: 42, HorizonSlots: 600, Sessions: 50,
			RatePerSec: 15, MeanHoldSec: 2}
		a, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		b, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !reflect.DeepEqual(a.Sessions, b.Sessions) {
			t.Errorf("%s: same seed produced different workloads", shape)
		}
		if len(a.Sessions) == 0 {
			t.Errorf("%s: generated no sessions", shape)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := Config{Shape: Poisson, HorizonSlots: 600, RatePerSec: 15, MeanHoldSec: 2}
	cfg.Seed = 1
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	if reflect.DeepEqual(a.Sessions, b.Sessions) {
		t.Error("different seeds produced identical workloads")
	}
}

func TestSteadyShape(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 120, HorizonSlots: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sessions) != 120 {
		t.Fatalf("want 120 sessions, got %d", len(w.Sessions))
	}
	ramp := w.Cfg.RampSlots
	for _, s := range w.Sessions {
		if s.ArriveSlot < 0 || s.ArriveSlot >= ramp {
			t.Fatalf("session %d arrives at %d, outside ramp [0,%d)", s.ID, s.ArriveSlot, ramp)
		}
		if s.DepartSlot != w.Cfg.HorizonSlots {
			t.Fatalf("session %d departs at %d, want full horizon %d (MeanHoldSec=0)",
				s.ID, s.DepartSlot, w.Cfg.HorizonSlots)
		}
	}
	if got := w.peakConcurrent(); got != 120 {
		t.Errorf("steady peak concurrent = %d, want 120", got)
	}
	if _, err := Generate(Config{Shape: Steady}); err == nil {
		t.Error("steady with Sessions=0 should be rejected")
	}
}

func TestSessionsSortedAndWithinHorizon(t *testing.T) {
	w, err := Generate(Config{Shape: MMPP, Seed: 7, HorizonSlots: 1200,
		RatePerSec: 10, MeanHoldSec: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Sessions {
		if s.DepartSlot <= s.ArriveSlot {
			t.Fatalf("session %d: empty lifetime [%d,%d)", s.ID, s.ArriveSlot, s.DepartSlot)
		}
		if s.ArriveSlot < 0 || s.DepartSlot > w.Cfg.HorizonSlots {
			t.Fatalf("session %d outside horizon: [%d,%d)", s.ID, s.ArriveSlot, s.DepartSlot)
		}
		if i > 0 {
			p := w.Sessions[i-1]
			if p.ArriveSlot > s.ArriveSlot ||
				(p.ArriveSlot == s.ArriveSlot && p.ID >= s.ID) {
				t.Fatalf("sessions out of order at %d: (%d,%d) then (%d,%d)",
					i, p.ArriveSlot, p.ID, s.ArriveSlot, s.ID)
			}
		}
	}
}

func TestSessionsCapRespected(t *testing.T) {
	w, err := Generate(Config{Shape: Poisson, Seed: 3, HorizonSlots: 6000,
		RatePerSec: 50, MeanHoldSec: 1, Sessions: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sessions) != 40 {
		t.Errorf("cap 40, got %d sessions", len(w.Sessions))
	}
}

func TestFlashCrowdConcentratesArrivals(t *testing.T) {
	cfg := Config{Seed: 11, HorizonSlots: 3600, RatePerSec: 5, MeanHoldSec: 2}
	cfg.Shape = Flash
	flash, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := flash.Cfg
	burstStart := int(c.BurstStartFrac * float64(c.HorizonSlots))
	burstEnd := burstStart + int(c.BurstLenFrac*float64(c.HorizonSlots))
	inBurst := 0
	for _, s := range flash.Sessions {
		if s.ArriveSlot >= burstStart && s.ArriveSlot < burstEnd {
			inBurst++
		}
	}
	// The burst window is 10% of the horizon at 8x rate: roughly 8/17 of all
	// arrivals land there, versus 10% under plain Poisson.
	frac := float64(inBurst) / float64(len(flash.Sessions))
	if frac < 0.25 {
		t.Errorf("flash burst window holds only %.2f of arrivals, want clearly above the 0.10 baseline", frac)
	}
}

func TestDiurnalQuietAtEdges(t *testing.T) {
	w, err := Generate(Config{Shape: Diurnal, Seed: 5, HorizonSlots: 6000,
		RatePerSec: 10, MeanHoldSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	edge, middle := 0, 0
	h := w.Cfg.HorizonSlots
	for _, s := range w.Sessions {
		switch {
		case s.ArriveSlot < h/10 || s.ArriveSlot >= h-h/10:
			edge++
		case s.ArriveSlot >= 4*h/10 && s.ArriveSlot < 6*h/10:
			middle++
		}
	}
	if middle <= edge {
		t.Errorf("diurnal should peak mid-horizon: edge=%d middle=%d", edge, middle)
	}
}

func TestTraceRegenerationDeterministic(t *testing.T) {
	w, err := Generate(Config{Shape: Steady, Sessions: 4, HorizonSlots: 300})
	if err != nil {
		t.Fatal(err)
	}
	spec := w.Sessions[2]
	if !reflect.DeepEqual(w.MotionTrace(spec, 8), w.MotionTrace(spec, 8)) {
		t.Error("motion trace regeneration is not deterministic")
	}
	if !reflect.DeepEqual(w.CapSlots(spec), w.CapSlots(spec)) {
		t.Error("capacity trace regeneration is not deterministic")
	}
	caps := w.CapSlots(spec)
	if len(caps) != spec.Slots() {
		t.Fatalf("cap trace length %d, want %d", len(caps), spec.Slots())
	}
	for _, c := range caps {
		if c <= 0 {
			t.Fatal("non-positive link capacity in trace")
		}
	}
}

func TestNetKindsRoundRobin(t *testing.T) {
	kinds := []nettrace.Kind{nettrace.MmWave, nettrace.LTE, nettrace.Broadband}
	w, err := Generate(Config{Shape: Steady, Sessions: 9, HorizonSlots: 300, NetKinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Sessions {
		if want := kinds[int(s.ID)%3]; s.NetKind != want {
			t.Fatalf("session %d: kind %v, want %v", s.ID, s.NetKind, want)
		}
	}
}

func TestPeakConcurrent(t *testing.T) {
	w := &Workload{Sessions: []SessionSpec{
		{ID: 0, ArriveSlot: 0, DepartSlot: 10},
		{ID: 1, ArriveSlot: 5, DepartSlot: 15},
		{ID: 2, ArriveSlot: 9, DepartSlot: 12},
		{ID: 3, ArriveSlot: 10, DepartSlot: 20}, // arrives as 0 departs
	}}
	if got := w.peakConcurrent(); got != 3 {
		t.Errorf("peak concurrent = %d, want 3", got)
	}
}

// TestPeakConcurrentMatchesBruteForce holds the prefix-sum peak to a
// slot-by-slot count of live sessions on generated workloads of every
// arrival shape with churn, and on random specs whose arrivals and
// departures collide on the same slots.
func TestPeakConcurrentMatchesBruteForce(t *testing.T) {
	brute := func(w *Workload) int {
		end := 0
		for _, s := range w.Sessions {
			end = max(end, s.DepartSlot)
		}
		peak := 0
		for slot := 0; slot < end; slot++ {
			n := 0
			for _, s := range w.Sessions {
				if s.ArriveSlot <= slot && slot < s.DepartSlot {
					n++
				}
			}
			peak = max(peak, n)
		}
		return peak
	}
	var cases []*Workload
	for seed := int64(1); seed <= 3; seed++ {
		for _, shape := range []Shape{Steady, Poisson, MMPP, Flash, Diurnal} {
			w, err := Generate(Config{Shape: shape, Seed: seed, Sessions: 120, HorizonSlots: 900,
				RatePerSec: 20, MeanHoldSec: 2})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, w)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		w := &Workload{}
		for id := 0; id < 1+rng.Intn(60); id++ {
			arrive := rng.Intn(40)
			w.Sessions = append(w.Sessions, SessionSpec{ID: uint32(id), ArriveSlot: arrive, DepartSlot: arrive + 1 + rng.Intn(20)})
		}
		cases = append(cases, w)
	}
	for i, w := range cases {
		if got, want := w.peakConcurrent(), brute(w); got != want {
			t.Errorf("case %d (%d sessions): peak concurrent %d, brute force %d", i, len(w.Sessions), got, want)
		}
	}
}
