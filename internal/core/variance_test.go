package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func directVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}

// TestVarianceDecompositionExact verifies eq. (4) / Appendix A: the sum of
// the per-slot terms equals T*sigma^2(T) exactly for arbitrary series.
func TestVarianceDecompositionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(7)) // quality*indicator-like values
		}
		want := directVariance(xs)
		got := HorizonVariance(xs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: decomposed %v, direct %v", trial, got, want)
		}
	}
}

func TestVarianceDecompositionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 7)
		}
		return math.Abs(HorizonVariance(xs)-directVariance(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceTermsNonNegative(t *testing.T) {
	xs := []float64{3, 0, 5, 5, 2, 6, 0}
	for i, term := range VarianceTerms(xs) {
		if term < 0 {
			t.Errorf("term %d = %v, want >= 0", i, term)
		}
	}
	// First term is always zero: (t-1)/t = 0 at t=1.
	if VarianceTerms(xs)[0] != 0 {
		t.Errorf("first term should be 0")
	}
}

func TestVarianceEmpty(t *testing.T) {
	if got := HorizonVariance(nil); got != 0 {
		t.Errorf("empty variance = %v, want 0", got)
	}
	if terms := VarianceTerms(nil); len(terms) != 0 {
		t.Errorf("empty terms = %v", terms)
	}
}

func TestTrackerMeanAndDelta(t *testing.T) {
	params := DefaultSimParams()
	tr := NewTracker(params, 2, 1.0)

	if got := tr.Slot(); got != 1 {
		t.Fatalf("initial slot = %d, want 1", got)
	}
	if got := tr.Delta(0); got != 1 {
		t.Errorf("prior delta = %v, want 1", got)
	}
	if got := tr.MeanQ(0); got != 0 {
		t.Errorf("prior mean = %v, want 0", got)
	}

	tr.Record(0, 4, true, 0.2)
	tr.Record(0, 2, false, 0.1)
	tr.Record(1, 6, true, 0.0)

	// User 0: viewed {4, 0} -> mean 2; covered 1 of 2 -> delta (1+1)/3.
	if got := tr.MeanQ(0); math.Abs(got-2) > 1e-12 {
		t.Errorf("MeanQ(0) = %v, want 2", got)
	}
	if got := tr.Delta(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Delta(0) = %v, want 2/3", got)
	}
	if got := tr.variance(0); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance(0) = %v, want 4", got)
	}
	// User 1: viewed {6}.
	if got := tr.MeanQ(1); got != 6 {
		t.Errorf("MeanQ(1) = %v, want 6", got)
	}
}

func TestTrackerQoEMatchesDefinition(t *testing.T) {
	params := Params{Alpha: 0.1, Beta: 0.5, Levels: 6}
	tr := NewTracker(params, 1, 1)
	var viewed []float64
	var delaySum float64
	rng := rand.New(rand.NewSource(33))
	var viewedSum float64
	for i := 0; i < 300; i++ {
		q := 1 + rng.Intn(6)
		covered := rng.Float64() < 0.9
		delay := rng.Float64()
		tr.Record(0, q, covered, delay)
		vq := 0.0
		if covered {
			vq = float64(q)
		}
		viewed = append(viewed, vq)
		viewedSum += vq
		delaySum += delay
	}
	want := viewedSum/300 - params.Alpha*delaySum/300 - params.Beta*directVariance(viewed)
	if got := tr.qoe(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("QoE = %v, want %v", got, want)
	}
	if got := tr.totalQoE(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalQoE = %v, want %v", got, want)
	}
}

func TestTrackerPriorClamped(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 1, 2.5)
	if got := tr.Delta(0); got != 1 {
		t.Errorf("clamped prior = %v, want 1", got)
	}
	tr = NewTracker(DefaultSimParams(), 1, -1)
	if got := tr.Delta(0); got != 0 {
		t.Errorf("clamped prior = %v, want 0", got)
	}
}

func TestTrackerUserInput(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 1, 1)
	tr.Record(0, 3, true, 0)
	rates := []float64{1, 2, 3, 4, 5, 6}
	delays := []float64{0, 0, 0, 0, 0, 0}
	u := tr.userInput(0, rates, delays, 42)
	if u.MeanQ != 3 || u.Cap != 42 {
		t.Errorf("UserInput = %+v", u)
	}
	if u.Delta != 1 {
		t.Errorf("Delta = %v, want 1 (prior 1, one covered obs)", u.Delta)
	}
}

func TestTrackerEmpty(t *testing.T) {
	tr := NewTracker(DefaultSimParams(), 0, 1)
	if len(tr.users) != 0 {
		t.Errorf("NumUsers = %d", len(tr.users))
	}
	if got := tr.Slot(); got != 1 {
		t.Errorf("Slot = %d, want 1", got)
	}
	if got := tr.totalQoE(); got != 0 {
		t.Errorf("TotalQoE = %v, want 0", got)
	}
}

// VarianceTerms computes the per-slot terms of the paper's variance
// decomposition (eq. (4) / Appendix A):
//
//	T*sigma^2(T) = sum_{t=1}^{T} (t-1)*(x_t - xbar_{t-1})^2 / t
//
// where x_t = q_n(t)*1_n(t) and xbar_t is the running mean. The returned
// slice has one entry per slot; its prefix sums divided by t reproduce
// sigma^2(t) exactly, which is what makes the per-slot decomposition of the
// QoE objective lossless.
func VarianceTerms(xs []float64) []float64 {
	terms := make([]float64, len(xs))
	var mean float64
	for i, x := range xs {
		t := float64(i + 1)
		d := x - mean // x_t - xbar_{t-1}
		terms[i] = (t - 1) * d * d / t
		mean += d / t
	}
	return terms
}

// HorizonVariance returns sigma^2(T) computed through the decomposition:
// (1/T) * sum of VarianceTerms. It must agree with the direct two-pass
// variance — a property covered by tests.
func HorizonVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, term := range VarianceTerms(xs) {
		sum += term
	}
	return sum / float64(len(xs))
}

// The tracker's read-outs below serve the tests: the realized per-user
// and system QoE the eq. (8) horizon checks compare against.

// userInput assembles the allocator input for user n given this slot's rate
// table, delay table and throughput cap.
func (tr *Tracker) userInput(n int, rate, delay []float64, cap_ float64) UserInput {
	return UserInput{
		Rate:  rate,
		Delay: delay,
		Delta: tr.Delta(n),
		MeanQ: tr.MeanQ(n),
		Cap:   cap_,
	}
}

// variance returns sigma_n^2(t) over the observed horizon for user n.
func (tr *Tracker) variance(n int) float64 { return tr.users[n].viewedVar.Variance() }

// qoe returns the realized per-slot-average QoE of user n so far:
// avg(q*1) - alpha*avg(d) - beta*sigma^2.
func (tr *Tracker) qoe(n int) float64 {
	u := &tr.users[n]
	if u.T == 0 {
		return 0
	}
	t := float64(u.T)
	return u.SumViewedQ/t - tr.params.Alpha*u.delaySum/t - tr.params.Beta*u.viewedVar.Variance()
}

// totalQoE returns the sum of per-user QoE values — the system objective of
// eq. (1), expressed per slot.
func (tr *Tracker) totalQoE() float64 {
	var sum float64
	for n := range tr.users {
		sum += tr.qoe(n)
	}
	return sum
}
