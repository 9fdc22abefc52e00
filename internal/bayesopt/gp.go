// Package bayesopt is the Bayesian-optimisation substrate underlying the
// CLITE reproduction: Gaussian-process regression with an RBF kernel
// (Cholesky-factorised, stdlib only) and the expected-improvement
// acquisition function. CLITE samples resource partitionings, fits a GP to
// the observed objective, and evaluates the candidate with the highest
// expected improvement next.
package bayesopt

import (
	"errors"
	"fmt"
	"math"
)

// GP is a Gaussian-process regressor over points in [0,1]^dim.
type GP struct {
	dim         int
	lengthScale float64
	signalVar   float64
	noiseVar    float64

	xs    [][]float64
	ys    []float64
	yMean float64
	chol  []float64 // lower-triangular factor of K, row-major n*n
	alpha []float64 // K^{-1} (y - mean)

	// ks and v are Predict's scratch vectors, reused across calls: the
	// acquisition loop predicts at hundreds of candidates per decision and
	// neither vector outlives the call.
	ks, v []float64
}

// NewGP returns a GP with an RBF kernel
// k(a,b) = signalVar * exp(-|a-b|^2 / (2 lengthScale^2)) and observation
// noise noiseVar.
func NewGP(dim int, lengthScale, signalVar, noiseVar float64) (*GP, error) {
	if dim <= 0 {
		return nil, errors.New("bayesopt: dimension must be positive")
	}
	if lengthScale <= 0 || signalVar <= 0 || noiseVar <= 0 {
		return nil, errors.New("bayesopt: kernel hyperparameters must be positive")
	}
	return &GP{dim: dim, lengthScale: lengthScale, signalVar: signalVar, noiseVar: noiseVar}, nil
}

// kernel evaluates the RBF kernel.
func (g *GP) kernel(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return g.signalVar * math.Exp(-d2/(2*g.lengthScale*g.lengthScale))
}

// Fit replaces the GP's observations and refactorises. Points must have the
// GP's dimension.
func (g *GP) Fit(xs [][]float64, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("bayesopt: %d points but %d observations", len(xs), len(ys))
	}
	if len(xs) == 0 {
		g.xs, g.ys, g.chol, g.alpha = nil, nil, nil, nil
		return nil
	}
	for i, x := range xs {
		if len(x) != g.dim {
			return fmt.Errorf("bayesopt: point %d has dimension %d, want %d", i, len(x), g.dim)
		}
	}
	n := len(xs)
	g.xs = xs
	g.ys = ys
	g.yMean = 0
	for _, y := range ys {
		g.yMean += y
	}
	g.yMean /= float64(n)

	k := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.kernel(xs[i], xs[j])
			if i == j {
				v += g.noiseVar
			}
			k[i*n+j] = v
			k[j*n+i] = v
		}
	}
	chol, err := cholesky(k, n)
	if err != nil {
		return err
	}
	g.chol = chol

	centered := make([]float64, n)
	for i, y := range ys {
		centered[i] = y - g.yMean
	}
	// alpha = K^{-1} centered via two triangular solves.
	tmp := forwardSolve(chol, centered, n)
	g.alpha = backwardSolve(chol, tmp, n)
	return nil
}

// Predict returns the posterior mean and standard deviation at x.
func (g *GP) Predict(x []float64) (mean, sd float64, err error) {
	if len(x) != g.dim {
		return 0, 0, fmt.Errorf("bayesopt: query has dimension %d, want %d", len(x), g.dim)
	}
	n := len(g.ys)
	if n == 0 {
		return 0, math.Sqrt(g.signalVar), nil
	}
	if cap(g.ks) < n {
		g.ks = make([]float64, n)
		g.v = make([]float64, n)
	}
	ks := g.ks[:n]
	for i, xi := range g.xs {
		ks[i] = g.kernel(x, xi)
	}
	mean = g.yMean
	for i := range ks {
		mean += ks[i] * g.alpha[i]
	}
	v := forwardSolveInto(g.v[:n], g.chol, ks, n)
	variance := g.kernel(x, x)
	for i := range v {
		variance -= v[i] * v[i]
	}
	if variance < 1e-12 {
		variance = 1e-12
	}
	return mean, math.Sqrt(variance), nil
}

// cholesky factorises a symmetric positive-definite matrix (row-major n*n),
// returning the lower-triangular factor. A tiny jitter is added on the
// diagonal if the matrix is borderline.
func cholesky(a []float64, n int) ([]float64, error) {
	l := make([]float64, n*n)
	jitter := 0.0
	for attempt := 0; attempt < 4; attempt++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			for j := 0; j <= i; j++ {
				sum := a[i*n+j]
				if i == j {
					sum += jitter
				}
				for k := 0; k < j; k++ {
					sum -= l[i*n+k] * l[j*n+k]
				}
				if i == j {
					if sum <= 0 {
						ok = false
						break
					}
					l[i*n+i] = math.Sqrt(sum)
				} else {
					l[i*n+j] = sum / l[j*n+j]
				}
			}
		}
		if ok {
			return l, nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 100
		}
		for i := range l {
			l[i] = 0
		}
	}
	return nil, errors.New("bayesopt: kernel matrix not positive definite")
}

// forwardSolve solves L x = b for lower-triangular L.
func forwardSolve(l, b []float64, n int) []float64 {
	return forwardSolveInto(make([]float64, n), l, b, n)
}

// forwardSolveInto is forwardSolve writing into a caller-provided vector.
func forwardSolveInto(x, l, b []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		sum := b[i]
		for j := 0; j < i; j++ {
			sum -= l[i*n+j] * x[j]
		}
		x[i] = sum / l[i*n+i]
	}
	return x
}

// backwardSolve solves L^T x = b for lower-triangular L.
func backwardSolve(l, b []float64, n int) []float64 {
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= l[j*n+i] * x[j]
		}
		x[i] = sum / l[i*n+i]
	}
	return x
}
