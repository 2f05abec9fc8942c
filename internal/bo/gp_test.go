package bo

import (
	"fmt"
	"math"
)

// GP is the batch reference IncrementalGP's tests compare against: a
// Gaussian-process regressor refit from scratch, with a
// radial-basis-function kernel
//
//	k(a,b) = σf² · exp(−‖a−b‖² / (2ℓ²)) + σn²·1[a==b]
//
// with fixed hyperparameters derived from the training targets.
type GP struct {
	// LengthScale ℓ of the RBF kernel over the (normalized) inputs.
	LengthScale float64
	// SignalVar σf² and NoiseVar σn².
	SignalVar float64
	NoiseVar  float64

	x     [][]float64
	alpha []float64
	chol  *Cholesky
	meanY float64
}

// FitGP trains a GP on inputs x (rows) and targets y. Hyperparameters:
// ℓ defaults to 1 (inputs are expected normalized), σf² to the target
// variance, σn² to 1% of it (floored to keep the kernel matrix positive
// definite).
func FitGP(x [][]float64, y []float64, lengthScale float64) (*GP, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("bo: need matching non-empty x (%d) and y (%d)", n, len(y))
	}
	if lengthScale <= 0 {
		lengthScale = 1
	}
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	varY := 0.0
	for _, v := range y {
		d := v - meanY
		varY += d * d
	}
	varY /= float64(n)
	if varY <= 0 {
		varY = 1
	}
	gp := &GP{
		LengthScale: lengthScale,
		SignalVar:   varY,
		NoiseVar:    math.Max(0.01*varY, 1e-9),
		x:           x,
		meanY:       meanY,
	}

	k := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := gp.kernel(x[i], x[j])
			if i == j {
				v += gp.NoiseVar
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	chol, err := NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("bo: kernel factorization failed: %w", err)
	}
	gp.chol = chol
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - meanY
	}
	gp.alpha = chol.SolveVec(centered)
	return gp, nil
}

func (gp *GP) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return gp.SignalVar * math.Exp(-d2/(2*gp.LengthScale*gp.LengthScale))
}

// Predict returns the posterior mean and standard deviation at point p.
func (gp *GP) Predict(p []float64) (mu, sigma float64) {
	n := len(gp.x)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = gp.kernel(p, gp.x[i])
	}
	mu = gp.meanY + dot(ks, gp.alpha)
	v := gp.chol.ForwardSolve(ks)
	variance := gp.SignalVar + gp.NoiseVar - dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mu, math.Sqrt(variance)
}
