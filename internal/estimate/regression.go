package estimate

import (
	"errors"
	"math"
)

// errSingular is returned when a regression's normal equations are singular
// (e.g. fewer distinct samples than coefficients).
var errSingular = errors.New("estimate: singular system, not enough distinct samples")

// PolyFit holds polynomial coefficients; Coeffs[i] multiplies x^i.
type PolyFit struct {
	Coeffs []float64
}

// PolyFitter computes least-squares polynomial fits on reusable scratch:
// once its buffers have grown, a fit performs zero heap allocations — the
// regime of the server's per-slot delay-model refresh. The returned
// PolyFit.Coeffs alias fitter-owned memory and are only valid until the
// next Fit on the same fitter. Not safe for concurrent use.
type PolyFitter struct {
	powSums []float64
	b       []float64
	rows    [][]float64
	flat    []float64
	coeffs  []float64
}

// Fit computes the least-squares polynomial of the given degree through the
// points (xs[i], ys[i]) by solving the normal equations with Gaussian
// elimination. The paper uses polynomial regression to predict the
// (non-linear) delay-vs-rate relationship on the server (Section V).
func (f *PolyFitter) Fit(xs, ys []float64, degree int) (PolyFit, error) {
	if len(xs) != len(ys) {
		return PolyFit{}, errors.New("estimate: mismatched sample lengths")
	}
	if degree < 0 {
		return PolyFit{}, errors.New("estimate: negative degree")
	}
	m := degree + 1
	if len(xs) < m {
		return PolyFit{}, errSingular
	}

	f.powSums = growZeroed(f.powSums, 2*m-1)
	f.b = growZeroed(f.b, m)
	powSums, b := f.powSums, f.b
	for k := range xs {
		p := 1.0
		for i := 0; i < 2*m-1; i++ {
			powSums[i] += p
			if i < m {
				b[i] += ys[k] * p
			}
			p *= xs[k]
		}
	}
	if cap(f.flat) < m*m {
		f.flat = make([]float64, m*m)
	}
	if cap(f.rows) < m {
		f.rows = make([][]float64, m)
	}
	f.flat, f.rows = f.flat[:m*m], f.rows[:m]
	for i := 0; i < m; i++ {
		f.rows[i] = f.flat[i*m : (i+1)*m : (i+1)*m]
		for j := 0; j < m; j++ {
			f.rows[i][j] = powSums[i+j]
		}
	}
	if cap(f.coeffs) < m {
		f.coeffs = make([]float64, m)
	}
	f.coeffs = f.coeffs[:m]
	if err := solveGaussInto(f.rows, b, f.coeffs); err != nil {
		return PolyFit{}, err
	}
	return PolyFit{Coeffs: f.coeffs}, nil
}

func growZeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Predict evaluates the fitted polynomial at x using Horner's rule.
func (f PolyFit) Predict(x float64) float64 {
	var y float64
	for i := len(f.Coeffs) - 1; i >= 0; i-- {
		y = y*x + f.Coeffs[i]
	}
	return y
}

// solveGaussInto solves a dense linear system with partial pivoting,
// writing the solution into caller-provided x (len(x) == len(a)); it
// mutates a and b.
func solveGaussInto(a [][]float64, b, x []float64) error {
	n := len(a)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return errSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return nil
}
