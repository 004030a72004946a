package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestUserQoEComponents(t *testing.T) {
	u := NewUserQoE(QoEParams{Alpha: 0.1, Beta: 0.5})
	// Three slots: q=4 covered, q=2 not covered, q=4 covered.
	u.Observe(4, true, 0.5)
	u.Observe(2, false, 0.1)
	u.Observe(4, true, 0.3)

	if got := u.Slots(); got != 3 {
		t.Fatalf("Slots = %d, want 3", got)
	}
	if got := u.AvgQuality(); math.Abs(got-8.0/3) > 1e-9 {
		t.Errorf("AvgQuality = %v, want %v", got, 8.0/3)
	}
	if got := u.AvgDelay(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("AvgDelay = %v, want 0.3", got)
	}
	if got := u.CoverageRate(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("CoverageRate = %v, want 2/3", got)
	}
	// Viewed series is {4, 0, 4}: mean 8/3, variance (2*(4-8/3)^2+(8/3)^2)/3.
	mean := 8.0 / 3
	wantVar := (2*(4-mean)*(4-mean) + mean*mean) / 3
	if got := u.Variance(); math.Abs(got-wantVar) > 1e-9 {
		t.Errorf("Variance = %v, want %v", got, wantVar)
	}
	wantQoE := mean - 0.1*0.3 - 0.5*wantVar
	if got := u.QoE(); math.Abs(got-wantQoE) > 1e-9 {
		t.Errorf("QoE = %v, want %v", got, wantQoE)
	}
}

func TestUserQoEEmpty(t *testing.T) {
	u := NewUserQoE(QoEParams{Alpha: 1, Beta: 1})
	if u.QoE() != 0 || u.AvgQuality() != 0 || u.AvgDelay() != 0 {
		t.Errorf("empty accumulator should report zeros")
	}
}

func TestUserQoEConstantQualityHasZeroVariance(t *testing.T) {
	u := NewUserQoE(QoEParams{Beta: 0.5})
	for i := 0; i < 100; i++ {
		u.Observe(3, true, 0)
	}
	if got := u.Variance(); got != 0 {
		t.Errorf("constant viewed quality should have zero variance, got %v", got)
	}
	if got := u.QoE(); math.Abs(got-3) > 1e-9 {
		t.Errorf("QoE = %v, want 3", got)
	}
}

func TestVarianceReducesQoE(t *testing.T) {
	steady := NewUserQoE(QoEParams{Beta: 0.5})
	choppy := NewUserQoE(QoEParams{Beta: 0.5})
	for i := 0; i < 100; i++ {
		steady.Observe(3, true, 0)
		if i%2 == 0 {
			choppy.Observe(5, true, 0)
		} else {
			choppy.Observe(1, true, 0)
		}
	}
	// Same average quality (3), but the choppy stream pays a variance penalty
	// — the paper's motivation for including sigma^2 in QoE.
	if steady.AvgQuality() != choppy.AvgQuality() {
		t.Fatalf("setup: averages differ: %v vs %v", steady.AvgQuality(), choppy.AvgQuality())
	}
	if choppy.QoE() >= steady.QoE() {
		t.Errorf("choppy QoE %v should be below steady %v", choppy.QoE(), steady.QoE())
	}
}

func TestFrameAccounting(t *testing.T) {
	u := NewUserQoE(QoEParams{})
	for i := 0; i < 10; i++ {
		u.Observe(1, true, 0)
		u.ObserveFrame(i < 9)
	}
	if got := u.FrameRate(); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("FrameRate = %v, want 0.9", got)
	}
}

func TestAggregate(t *testing.T) {
	a := NewUserQoE(QoEParams{})
	b := NewUserQoE(QoEParams{})
	a.Observe(2, true, 1)
	b.Observe(4, true, 3)
	r := Aggregate([]*UserQoE{a, b})
	if math.Abs(r.Quality-3) > 1e-9 {
		t.Errorf("aggregate quality = %v, want 3", r.Quality)
	}
	if math.Abs(r.Delay-2) > 1e-9 {
		t.Errorf("aggregate delay = %v, want 2", r.Delay)
	}
	if math.Abs(r.Coverage-1) > 1e-9 {
		t.Errorf("aggregate coverage = %v, want 1", r.Coverage)
	}

	if empty := Aggregate(nil); empty != (Report{}) {
		t.Errorf("empty aggregate = %+v, want zero", empty)
	}
}

func TestFormatComparison(t *testing.T) {
	out := FormatComparison("Fig 7", []string{"ours", "firefly"},
		[]Report{{QoE: 3.2, FPSFrac: 1}, {QoE: 1.7, FPSFrac: 0.8}}, 60)
	if !strings.Contains(out, "Fig 7") || !strings.Contains(out, "firefly") {
		t.Errorf("bad format: %q", out)
	}
	if !strings.Contains(out, "60.0") {
		t.Errorf("FPS column should scale by slot rate: %q", out)
	}
}

// A reset accumulator reports what a new one does after the same slots.
func TestUserQoEReset(t *testing.T) {
	p := QoEParams{Alpha: 0.02, Beta: 0.5}
	u := NewUserQoE(QoEParams{Alpha: 1, Beta: 1})
	for i := 0; i < 40; i++ {
		u.Observe(1+i%5, i%3 != 0, float64(i))
		u.ObserveFrame(i%2 == 0)
	}
	u.Reset(p)
	fresh := NewUserQoE(p)
	for i := 0; i < 25; i++ {
		u.Observe(5-i%5, i%4 != 0, float64(2*i))
		fresh.Observe(5-i%5, i%4 != 0, float64(2*i))
		u.ObserveFrame(i%3 == 0)
		fresh.ObserveFrame(i%3 == 0)
	}
	if *u != *fresh {
		t.Fatalf("reset accumulator %+v, new one %+v", *u, *fresh)
	}
}
