// Package bo implements the Bayesian-optimization machinery backing the
// Aquatope baseline (§4.2): Gaussian-process regression with an RBF kernel
// over normalized configuration features, grown one observation at a
// time, a cheap bound on its posterior mean over an option grid, plus the
// expected constraint violation the offline trainer's acquisition
// function penalizes.
package bo

import (
	"fmt"
	"math"
	"slices"
)

// IncrementalGP is a Gaussian process whose kernel Cholesky factor grows by
// rank-1 extension as observations arrive — O(n²) per added point instead
// of O(n³) per refit. The Aquatope trainer adds five observations per BO
// round over 50 rounds (§4.2), so incremental updates keep training cheap.
//
// An IncrementalGP is not safe for concurrent use: predictions refresh the
// cached weights and reuse the GP's scratch buffers.
type IncrementalGP struct {
	LengthScale float64
	SignalVar   float64
	NoiseVar    float64
	meanY       float64

	// Work counts what the GP has computed so far.
	Work Work

	x [][]float64
	// l is the growing lower-triangular Cholesky factor, row i of length
	// i+1.
	l [][]float64
	// z is L⁻¹·(y − meanY), one entry per observation.
	z []float64

	// alpha solves Lᵀ·alpha = z; absAlpha holds |alpha| and absAlphaSum
	// its sum, for MeanBound's error bound.
	alpha, absAlpha []float64
	absAlphaSum     float64
	alphaDirty      bool

	// grid, when set, is the option grid every point lies on, and
	// blocks[b] holds block b's tuple index of each observation, in the
	// order of x.
	grid   *Grid
	blocks [][]int32

	// ks and kb are prediction scratch: the kernel row of one point, and
	// of the four points a batched forward solve carries; prod is
	// MeanBound's, the table's kernel factor per observation.
	ks   []float64
	kb   [4][]float64
	prod []float64
}

// Work counts a GP's deterministic work: exact kernel rows (n math.Exp
// calls each, for Add and the exact predictions), table-bound rows
// (MeanBound) and variance solves (one per point Predict or PredictBatch
// returns a standard deviation for).
type Work struct {
	ExactRows, BoundRows, Solves int
}

// NewIncrementalGP creates an empty incremental GP with fixed
// hyperparameters (signalVar, noiseVar and the prior mean are typically
// estimated from bootstrap samples before adding points).
func NewIncrementalGP(lengthScale, signalVar, noiseVar, meanY float64) *IncrementalGP {
	if lengthScale <= 0 {
		lengthScale = 1
	}
	if signalVar <= 0 {
		signalVar = 1
	}
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	return &IncrementalGP{
		LengthScale: lengthScale,
		SignalVar:   signalVar,
		NoiseVar:    noiseVar,
		meanY:       meanY,
	}
}

// NewGridGP is NewIncrementalGP over an option grid, with the grid's
// length scale: every point it is given lies on the grid, and MeanBound
// bounds its posterior mean from the grid's kernel table.
func NewGridGP(t *Grid, signalVar, noiseVar, meanY float64) *IncrementalGP {
	g := NewIncrementalGP(t.lengthScale, signalVar, noiseVar, meanY)
	g.grid = t
	return g
}

// Len returns the number of observations.
func (g *IncrementalGP) Len() int { return len(g.x) }

func (g *IncrementalGP) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return g.SignalVar * math.Exp(-d2/(2*g.LengthScale*g.LengthScale))
}

// kernelRow returns the kernel of p against every observation, stored in
// dst's backing array when it is large enough.
func (g *IncrementalGP) kernelRow(dst, p []float64) []float64 {
	g.Work.ExactRows++
	dst = slices.Grow(dst[:0], len(g.x))[:len(g.x)]
	for i, x := range g.x {
		dst[i] = g.kernel(p, x)
	}
	return dst
}

// forward overwrites v with L⁻¹·v, by forward substitution over the
// factor's first len(v) rows.
func (g *IncrementalGP) forward(v []float64) {
	for i := range v {
		row := g.l[i]
		prev := row[:i]
		solved := v[:len(prev)]
		sum := v[i]
		for j, l := range prev {
			sum -= l * solved[j]
		}
		v[i] = sum / row[i]
	}
}

// forward4 is forward on four vectors of one length at once. Each keeps
// its own accumulator, updated in forward's order, so the results are
// bit-identical to four forward calls, but the four independent
// subtraction chains overlap instead of each waiting on the last.
func (g *IncrementalGP) forward4(v0, v1, v2, v3 []float64) {
	for i := range v0 {
		row := g.l[i]
		prev := row[:i]
		a, b, c, d := v0[:len(prev)], v1[:len(prev)], v2[:len(prev)], v3[:len(prev)]
		s0, s1, s2, s3 := v0[i], v1[i], v2[i], v3[i]
		for j, l := range prev {
			s0 -= l * a[j]
			s1 -= l * b[j]
			s2 -= l * c[j]
			s3 -= l * d[j]
		}
		diag := row[i]
		v0[i], v1[i], v2[i], v3[i] = s0/diag, s1/diag, s2/diag, s3/diag
	}
}

// Add appends one observation, extending the Cholesky factor by one row.
// On a GP over a grid, opts names the option each coordinate of x takes
// (x is the grid's Point(opts)); other GPs ignore it. A point Add rejects
// stays out of the model.
func (g *IncrementalGP) Add(x []float64, opts []int32, y float64) error {
	// The new row is L⁻¹ times the kernel column against the existing
	// points, then the diagonal.
	row := g.kernelRow(make([]float64, 0, len(g.x)+1), x)
	g.forward(row)
	diag := g.kernel(x, x) + g.NoiseVar - dot(row, row)
	if diag <= 0 {
		return fmt.Errorf("bo: incremental update lost positive definiteness (diag=%g)", diag)
	}
	d := math.Sqrt(diag)
	// z's new entry is forward substitution's last row on y − meanY: the
	// same operations in forward's order, so the same bits.
	sum := y - g.meanY
	for j, l := range row {
		sum -= l * g.z[j]
	}
	g.z = append(g.z, sum/d)
	g.l = append(g.l, append(row, d))
	g.x = append(g.x, x)
	if t := g.grid; t != nil {
		if g.blocks == nil {
			g.blocks = make([][]int32, len(opts)/len(t.options))
		}
		for b := range g.blocks {
			g.blocks[b] = append(g.blocks[b], t.block(opts, b))
		}
	}
	g.alphaDirty = true
	return nil
}

// refreshAlpha solves Lᵀ·alpha = z by back substitution.
func (g *IncrementalGP) refreshAlpha() {
	if !g.alphaDirty {
		return
	}
	n := len(g.x)
	alpha := slices.Grow(g.alpha[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		sum := g.z[i]
		for k := i + 1; k < n; k++ {
			sum -= g.l[k][i] * alpha[k]
		}
		alpha[i] = sum / g.l[i][i]
	}
	g.alpha = alpha
	g.absAlpha = slices.Grow(g.absAlpha[:0], n)[:n]
	g.absAlphaSum = 0
	for i, a := range alpha {
		g.absAlpha[i] = math.Abs(a)
		g.absAlphaSum += g.absAlpha[i]
	}
	g.alphaDirty = false
}

// Mean returns the posterior mean at p, exactly as Predict computes it,
// without Predict's O(n²) variance solve.
func (g *IncrementalGP) Mean(p []float64) float64 {
	if len(g.x) == 0 {
		return g.meanY
	}
	g.refreshAlpha()
	g.ks = g.kernelRow(g.ks, p)
	return g.meanY + dot(g.ks, g.alpha)
}

// Predict returns the posterior mean and standard deviation at p.
func (g *IncrementalGP) Predict(p []float64) (mu, sigma float64) {
	if len(g.x) == 0 {
		return g.meanY, math.Sqrt(g.SignalVar)
	}
	mu = g.Mean(p)
	g.forward(g.ks)
	g.Work.Solves++
	return mu, g.stddev(g.ks)
}

// PredictBatch stores the posterior mean and standard deviation at ps[i]
// in mu[i] and sigma[i]; mu and sigma must be at least len(ps) long. The
// results are bit-identical to Predict's, point by point.
func (g *IncrementalGP) PredictBatch(ps [][]float64, mu, sigma []float64) {
	i := 0
	if len(g.x) > 0 {
		g.refreshAlpha()
		k := &g.kb
		for ; i+len(k) <= len(ps); i += len(k) {
			for c := range k {
				k[c] = g.kernelRow(k[c], ps[i+c])
				mu[i+c] = g.meanY + dot(k[c], g.alpha)
			}
			g.forward4(k[0], k[1], k[2], k[3])
			g.Work.Solves += len(k)
			for c := range k {
				sigma[i+c] = g.stddev(k[c])
			}
		}
	}
	for ; i < len(ps); i++ {
		mu[i], sigma[i] = g.Predict(ps[i])
	}
}

// stddev returns the predictive standard deviation at a point whose kernel
// row ks has been solved to v = L⁻¹·ks.
func (g *IncrementalGP) stddev(v []float64) float64 {
	variance := g.SignalVar + g.NoiseVar - dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ExpectedViolation returns E[max(0, X − limit)] for X ~ N(mu, sigma²):
// the expected SLO violation the acquisition function penalizes.
func ExpectedViolation(mu, sigma, limit float64) float64 {
	if sigma <= 0 {
		if mu > limit {
			return mu - limit
		}
		return 0
	}
	z := (mu - limit) / sigma
	return sigma * (normalPDF(z) + z*normalCDF(z))
}

// normalPDF is the standard normal density.
func normalPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// normalCDF is the standard normal cumulative distribution.
func normalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
