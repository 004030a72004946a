package estimate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-9 || math.Abs(fit.Intercept+2) > 1e-9 {
		t.Errorf("fit = %+v, want slope 3 intercept -2", fit)
	}
	if got := fit.Predict(10); math.Abs(got-28) > 1e-9 {
		t.Errorf("Predict(10) = %v, want 28", got)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 0.5*x+1+rng.NormFloat64()*0.01)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.5) > 0.01 || math.Abs(fit.Intercept-1) > 0.05 {
		t.Errorf("noisy fit = %+v, want approx slope 0.5 intercept 1", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{2}); !errors.Is(err, errSingular) {
		t.Errorf("single sample should be singular, got %v", err)
	}
	if _, err := FitLinear([]float64{1, 1, 1}, []float64{2, 3, 4}); !errors.Is(err, errSingular) {
		t.Errorf("constant x should be singular, got %v", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{2}); err == nil {
		t.Errorf("mismatched lengths should error")
	}
}

func TestFitPolyRecoversQuadratic(t *testing.T) {
	var xs, ys []float64
	for i := -5; i <= 5; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x*x-3*x+1)
	}
	fit, err := new(PolyFitter).Fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -3, 2}
	for i, c := range want {
		if math.Abs(fit.Coeffs[i]-c) > 1e-6 {
			t.Errorf("coeff[%d] = %v, want %v", i, fit.Coeffs[i], c)
		}
	}
	if got := fit.Predict(2); math.Abs(got-3) > 1e-6 {
		t.Errorf("Predict(2) = %v, want 3", got)
	}
}

func TestFitPolyDegreeZero(t *testing.T) {
	fit, err := new(PolyFitter).Fit([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coeffs[0]-6) > 1e-9 {
		t.Errorf("degree-0 fit should be the mean, got %v", fit.Coeffs[0])
	}
}

func TestFitPolyErrors(t *testing.T) {
	if _, err := new(PolyFitter).Fit([]float64{1, 2}, []float64{1, 2}, 2); !errors.Is(err, errSingular) {
		t.Errorf("too few samples should be singular, got %v", err)
	}
	if _, err := new(PolyFitter).Fit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Errorf("mismatched lengths should error")
	}
	if _, err := new(PolyFitter).Fit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Errorf("negative degree should error")
	}
}

// The delay-vs-rate curve of eq. (13) is convex; a quadratic fit over the
// operating region should predict it with small relative error — this is
// exactly what the server-side delay predictor does.
func TestFitPolyApproximatesMM1Delay(t *testing.T) {
	budget := 50.0
	var xs, ys []float64
	for r := 5.0; r <= 40; r += 1 {
		xs = append(xs, r)
		ys = append(ys, r/(budget-r))
	}
	fit, err := new(PolyFitter).Fit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 6.0; r <= 39; r += 3 {
		want := r / (budget - r)
		got := fit.Predict(r)
		if math.Abs(got-want) > 0.05+0.25*want {
			t.Errorf("Predict(%v) = %v, want approx %v", r, got, want)
		}
	}
}

func TestSlidingWindowPredict(t *testing.T) {
	w := NewSlidingWindow(5)
	if got := w.PredictNext(); got != 0 {
		t.Errorf("empty window predicts %v, want 0", got)
	}
	w.Push(7)
	if got := w.PredictNext(); got != 7 {
		t.Errorf("single-sample window predicts %v, want 7", got)
	}
	// Linear series: prediction continues the line.
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Push(x)
	}
	if got := w.PredictNext(); math.Abs(got-6) > 1e-9 {
		t.Errorf("PredictNext = %v, want 6", got)
	}
	// Window evicts: after pushing 6, window holds 2..6 and predicts 7.
	w.Push(6)
	if len(w.samples) != 5 {
		t.Fatalf("window length = %d, want 5", len(w.samples))
	}
	if got := w.PredictNext(); math.Abs(got-7) > 1e-9 {
		t.Errorf("PredictNext after eviction = %v, want 7", got)
	}
}

func TestSlidingWindowConstantSeries(t *testing.T) {
	w := NewSlidingWindow(4)
	for i := 0; i < 10; i++ {
		w.Push(3.5)
	}
	if got := w.PredictNext(); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("constant series predicts %v, want 3.5", got)
	}
}

func TestSlidingWindowMinCapacity(t *testing.T) {
	w := NewSlidingWindow(0)
	w.Push(1)
	w.Push(2)
	w.Push(3)
	if len(w.samples) != 2 {
		t.Errorf("capacity should clamp to 2, len = %d", len(w.samples))
	}
}

// predictNextReference is PredictNext as it was first written: build the
// abscissae 0..n-1, call FitLinear, extrapolate to n.
func predictNextReference(samples []float64) float64 {
	n := len(samples)
	switch n {
	case 0:
		return 0
	case 1:
		return samples[0]
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	fit, err := FitLinear(xs, samples)
	if err != nil {
		return samples[n-1]
	}
	return fit.Predict(float64(n))
}

// The in-place PredictNext must equal the FitLinear reference bit for bit at
// every fill level, through eviction, on random and on constant series.
func TestPredictNextMatchesFitLinearBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	series := map[string]func() float64{
		"random":   func() float64 { return rng.NormFloat64() * 90 },
		"small":    func() float64 { return rng.Float64() * 1e-9 },
		"constant": func() float64 { return 3.5 },
		"zero":     func() float64 { return 0 },
	}
	for name, next := range series {
		for _, window := range []int{2, 3, 8, 13} {
			w := NewSlidingWindow(window)
			var tail []float64
			for n := 0; n <= window+3; n++ {
				got, want := w.PredictNext(), predictNextReference(tail)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s window %d after %d pushes: PredictNext %v, reference %v", name, window, n, got, want)
				}
				x := next()
				w.Push(x)
				if tail = append(tail, x); len(tail) > window {
					tail = tail[1:]
				}
			}
		}
	}
}

func TestPredictNextDoesNotAllocate(t *testing.T) {
	w := NewSlidingWindow(8)
	for i := 0; i < 8; i++ {
		w.Push(float64(i * i))
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = w.PredictNext(); w.Push(sink) }); allocs != 0 {
		t.Errorf("PredictNext+Push allocate %v times per call, want 0", allocs)
	}
}

var sink float64

// LinearFit holds the coefficients of y = Intercept + Slope*x.
type LinearFit struct {
	Intercept float64
	Slope     float64
}

// FitLinear computes the ordinary-least-squares line through the points
// (xs[i], ys[i]). It is the regression the paper uses per axis for 6-DoF
// motion prediction ("The linear regression model is used to predict the
// 6-DoF motion in the next time slot", Section IV).
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("estimate: mismatched sample lengths")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}, errSingular
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if math.Abs(det) < 1e-12 {
		return LinearFit{}, errSingular
	}
	slope := (n*sxy - sx*sy) / det
	intercept := (sy - slope*sx) / n
	return LinearFit{Intercept: intercept, Slope: slope}, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// NewSlidingWindow returns a window holding up to capacity samples
// (minimum 2).
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity < 2 {
		capacity = 2
	}
	w := WindowOver(make([]float64, capacity))
	return &w
}
