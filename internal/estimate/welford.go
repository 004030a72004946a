// Package estimate provides the streaming estimators used across the system:
// Welford running mean/variance (the variance-iteration formula behind the
// paper's per-slot decomposition, eq. (4)), exponential moving averages for
// throughput estimation, and linear/polynomial least-squares regression for
// motion and delay prediction.
package estimate

// Welford computes a running mean and population variance using Welford's
// method, the "variance iteration formula" the paper cites as [15].
//
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations
}

// Add incorporates a new observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Variance returns the population variance (dividing by n), matching the
// paper's sigma_n^2(T) definition. It returns 0 before the second
// observation.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}
