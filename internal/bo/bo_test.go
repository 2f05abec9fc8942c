package bo

import (
	"math"
	"testing"

	"github.com/esg-sched/esg/internal/rng"
)

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}}
	y := []float64{1, 2, 0.5}
	gp, err := FitGP(x, y, 0.3)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	for i := range x {
		mu, sigma := gp.Predict(x[i])
		if math.Abs(mu-y[i]) > 0.2 {
			t.Errorf("μ(x%d) = %v, want ≈%v", i, mu, y[i])
		}
		if sigma < 0 {
			t.Errorf("negative σ at training point")
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	x := [][]float64{{0}, {0.1}, {0.2}}
	y := []float64{1, 1.1, 0.9}
	gp, err := FitGP(x, y, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	_, sNear := gp.Predict([]float64{0.1})
	_, sFar := gp.Predict([]float64{3})
	if sFar <= sNear {
		t.Errorf("σ far (%v) should exceed σ near (%v)", sFar, sNear)
	}
}

func TestGPRevertsToMeanFarAway(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []float64{5, 7}
	gp, err := FitGP(x, y, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := gp.Predict([]float64{100})
	if math.Abs(mu-6) > 0.01 {
		t.Errorf("far prediction = %v, want prior mean 6", mu)
	}
}

func TestFitGPRejectsBadInput(t *testing.T) {
	if _, err := FitGP(nil, nil, 1); err == nil {
		t.Errorf("empty fit accepted")
	}
	if _, err := FitGP([][]float64{{1}}, []float64{1, 2}, 1); err == nil {
		t.Errorf("mismatched lengths accepted")
	}
}

func TestIncrementalMatchesBatchGP(t *testing.T) {
	src := rng.New(5)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 40; i++ {
		x := []float64{src.Float64(), src.Float64()}
		y := math.Sin(3*x[0]) + x[1] + 0.01*src.Normal()
		xs = append(xs, x)
		ys = append(ys, y)
	}
	batch, err := FitGP(xs, ys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Match the batch GP's centering.
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	inc := NewIncrementalGP(0.5, batch.SignalVar, batch.NoiseVar, mean)
	for i := range xs {
		if err := inc.Add(xs[i], nil, ys[i]); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		p := []float64{src.Float64(), src.Float64()}
		mb, sb := batch.Predict(p)
		mi, si := inc.Predict(p)
		if math.Abs(mb-mi) > 1e-8 {
			t.Errorf("μ mismatch at %v: %v vs %v", p, mb, mi)
		}
		if math.Abs(sb-si) > 1e-8 {
			t.Errorf("σ mismatch at %v: %v vs %v", p, sb, si)
		}
	}
}

func TestIncrementalEmptyPredict(t *testing.T) {
	gp := NewIncrementalGP(1, 2, 0.1, 5)
	mu, sigma := gp.Predict([]float64{0})
	if mu != 5 {
		t.Errorf("empty GP mean = %v, want prior 5", mu)
	}
	if math.Abs(sigma-math.Sqrt(2)) > 1e-12 {
		t.Errorf("empty GP σ = %v", sigma)
	}
	if gp.Len() != 0 {
		t.Errorf("Len = %d", gp.Len())
	}
}

func TestExpectedViolation(t *testing.T) {
	// Deterministic cases.
	if got := ExpectedViolation(5, 0, 3); got != 2 {
		t.Errorf("deterministic violation = %v", got)
	}
	if got := ExpectedViolation(2, 0, 3); got != 0 {
		t.Errorf("deterministic non-violation = %v", got)
	}
	// Symmetric case: μ = limit → E[max(0, X−limit)] = σ·φ(0) ≈ 0.3989σ.
	got := ExpectedViolation(3, 1, 3)
	if math.Abs(got-0.3989) > 1e-3 {
		t.Errorf("at-limit violation = %v", got)
	}
	// Monotone in μ.
	if ExpectedViolation(4, 1, 3) <= ExpectedViolation(2, 1, 3) {
		t.Errorf("violation not monotone in mean")
	}
}

func TestDot(t *testing.T) {
	if dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Errorf("dot product wrong")
	}
}

func TestNormalDistributionFunctions(t *testing.T) {
	if math.Abs(normalCDF(0)-0.5) > 1e-12 {
		t.Errorf("Φ(0) = %v", normalCDF(0))
	}
	if math.Abs(normalCDF(1.6449)-0.95) > 1e-3 {
		t.Errorf("Φ(1.6449) = %v", normalCDF(1.6449))
	}
	if math.Abs(normalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Errorf("φ(0) = %v", normalPDF(0))
	}
	// Symmetry.
	if math.Abs(normalCDF(-2)+normalCDF(2)-1) > 1e-12 {
		t.Errorf("CDF not symmetric")
	}
}

// frozenGP is IncrementalGP's Add and Predict as they were before Mean and
// PredictBatch existed: fresh slices per call and one scalar forward solve
// per right-hand side. It is the reference the fast paths must match bit
// for bit, so it stays as written.
type frozenGP struct {
	lengthScale, signalVar, noiseVar, meanY float64

	x     [][]float64
	y     []float64
	l     [][]float64
	alpha []float64
}

func frozenDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func (g *frozenGP) kernel(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return g.signalVar * math.Exp(-d2/(2*g.lengthScale*g.lengthScale))
}

func (g *frozenGP) add(x []float64, y float64) bool {
	n := len(g.x)
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = g.kernel(x, g.x[i])
	}
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := k[i]
		for j := 0; j < i; j++ {
			sum -= g.l[i][j] * v[j]
		}
		v[i] = sum / g.l[i][i]
	}
	diag := g.kernel(x, x) + g.noiseVar - frozenDot(v, v)
	if diag <= 0 {
		return false
	}
	row := make([]float64, n+1)
	copy(row, v)
	row[n] = math.Sqrt(diag)
	g.l = append(g.l, row)
	g.x = append(g.x, x)
	g.y = append(g.y, y)
	g.alpha = nil
	return true
}

func (g *frozenGP) predict(p []float64) (mu, sigma float64) {
	n := len(g.x)
	if n == 0 {
		return g.meanY, math.Sqrt(g.signalVar)
	}
	if g.alpha == nil {
		z := make([]float64, n)
		for i := 0; i < n; i++ {
			sum := g.y[i] - g.meanY
			for j := 0; j < i; j++ {
				sum -= g.l[i][j] * z[j]
			}
			z[i] = sum / g.l[i][i]
		}
		g.alpha = make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			sum := z[i]
			for k := i + 1; k < n; k++ {
				sum -= g.l[k][i] * g.alpha[k]
			}
			g.alpha[i] = sum / g.l[i][i]
		}
	}
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = g.kernel(p, g.x[i])
	}
	mu = g.meanY + frozenDot(ks, g.alpha)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := ks[i]
		for j := 0; j < i; j++ {
			sum -= g.l[i][j] * v[j]
		}
		v[i] = sum / g.l[i][i]
	}
	variance := g.signalVar + g.noiseVar - frozenDot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mu, math.Sqrt(variance)
}

func randPoint(src *rng.Source, dims int) []float64 {
	p := make([]float64, dims)
	for i := range p {
		p[i] = src.Float64()
	}
	return p
}

// TestIncrementalFastPathsMatchFrozenPredict checks Mean, Predict and
// PredictBatch against frozenGP by float64 bits, on random GPs of 0–120
// points in 1–15 dimensions. Each GP is predicted empty and then after
// each of two growth steps, so the cached weights and scratch buffers are
// reused after growth, and batch sizes run 0–70, so the 4-wide solve
// meets every remainder.
func TestIncrementalFastPathsMatchFrozenPredict(t *testing.T) {
	src := rng.New(13)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for batch := 0; batch <= 70; batch++ {
		dims := 1 + src.IntN(15)
		signal, noise, mean := 0.5+20*src.Float64(), 1e-6+0.05*src.Float64(), 100*src.Float64()
		g := NewIncrementalGP(0.5, signal, noise, mean)
		ref := &frozenGP{lengthScale: 0.5, signalVar: signal, noiseVar: noise, meanY: mean}
		n := src.IntN(121)
		for phase, adds := range []int{0, n / 2, n - n/2} {
			for i := 0; i < adds; i++ {
				x := randPoint(src, dims)
				if len(ref.x) > 0 && src.IntN(8) == 0 {
					x = ref.x[src.IntN(len(ref.x))] // a duplicate input
				}
				y := mean + signal*src.Normal()
				if errInc, okRef := g.Add(x, nil, y), ref.add(x, y); (errInc == nil) != okRef {
					t.Fatalf("batch %d: Add accepted=%v, frozen accepted=%v", batch, errInc == nil, okRef)
				}
			}
			ps := make([][]float64, batch)
			for i := range ps {
				ps[i] = randPoint(src, dims)
			}
			mu, sigma := make([]float64, batch), make([]float64, batch)
			g.PredictBatch(ps, mu, sigma)
			for i, p := range ps {
				wantMu, wantSigma := ref.predict(p)
				if !same(mu[i], wantMu) || !same(sigma[i], wantSigma) {
					t.Fatalf("batch %d phase %d n=%d point %d: PredictBatch (%v, %v), frozen (%v, %v)",
						batch, phase, g.Len(), i, mu[i], sigma[i], wantMu, wantSigma)
				}
				if gotMu, gotSigma := g.Predict(p); !same(gotMu, wantMu) || !same(gotSigma, wantSigma) {
					t.Fatalf("batch %d phase %d n=%d point %d: Predict (%v, %v), frozen (%v, %v)",
						batch, phase, g.Len(), i, gotMu, gotSigma, wantMu, wantSigma)
				}
				if m := g.Mean(p); !same(m, wantMu) {
					t.Fatalf("batch %d phase %d n=%d point %d: Mean %v, frozen %v",
						batch, phase, g.Len(), i, m, wantMu)
				}
			}
		}
	}
}

var sinkFloat float64

// TestIncrementalPredictAllocs pins the warm prediction paths at zero
// allocations: they reuse the GP's scratch buffers.
func TestIncrementalPredictAllocs(t *testing.T) {
	src := rng.New(3)
	grid := randomGrid(src, blockShapes[27], 0.5)
	g := NewGridGP(grid, 1, 0.01, 0)
	point := func() []int32 {
		opts := make([]int32, 6)
		for k := range opts {
			opts[k] = int32(src.IntN(3))
		}
		return opts
	}
	for g.Len() < 50 {
		opts := point()
		_ = g.Add(grid.Point(nil, opts), opts, src.Normal())
	}
	opts := point()
	ps := make([][]float64, 9)
	for i := range ps {
		ps[i] = grid.Point(nil, point())
	}
	mu, sigma := make([]float64, len(ps)), make([]float64, len(ps))
	g.PredictBatch(ps, mu, sigma)
	g.MeanBound(opts)
	for name, f := range map[string]func(){
		"Mean":         func() { sinkFloat = g.Mean(ps[0]) },
		"Predict":      func() { sinkFloat, _ = g.Predict(ps[1]) },
		"PredictBatch": func() { g.PredictBatch(ps, mu, sigma) },
		"MeanBound":    func() { sinkFloat, _ = g.MeanBound(opts) },
	} {
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("warm %s allocates %v times per call, want 0", name, allocs)
		}
	}
}

// BenchmarkIncrementalGPPredictBatch predicts one Aquatope acquisition
// pool (60 candidates) against a GP the size of a late training round.
func BenchmarkIncrementalGPPredictBatch(b *testing.B) {
	src := rng.New(1)
	g := NewIncrementalGP(0.5, 1, 0.01, 0)
	for g.Len() < 300 {
		_ = g.Add(randPoint(src, 9), nil, src.Normal())
	}
	ps := make([][]float64, 60)
	for i := range ps {
		ps[i] = randPoint(src, 9)
	}
	mu, sigma := make([]float64, len(ps)), make([]float64, len(ps))
	g.PredictBatch(ps, mu, sigma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictBatch(ps, mu, sigma)
	}
}
