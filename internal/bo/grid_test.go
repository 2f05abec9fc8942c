package bo

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/esg-sched/esg/internal/rng"
)

// blockShapes gives, per block option count, the option count of each of
// a block's three coordinates.
var blockShapes = map[int][3]int{1: {1, 1, 1}, 27: {3, 3, 3}, 256: {8, 8, 4}}

// boundCase is one random GP over a random grid.
type boundCase struct {
	seed          uint64
	blocks        int     // blocks per point, 1–6
	options       int     // options per block: 1, 27 or 256
	n             int     // observations, 0–350
	repeat        float64 // share of observations that repeat or nearly repeat an earlier one
	lengthScale   float64 // 0.01–10
	signal        float64 // signal variance
	noiseToSignal float64 // noise variance over signal variance, 1e-6–1
	centered      bool    // prior mean 0, which drops |meanY| from δ
}

// randomGrid draws each coordinate's option values in [0, 1], about half
// of them within 1e-7 of the previous option, so neighbouring options make
// near-repeated points.
func randomGrid(src *rng.Source, shape [3]int, lengthScale float64) *Grid {
	options := make([][]float64, len(shape))
	for j, n := range shape {
		for k := 0; k < n; k++ {
			v := src.Float64()
			if k > 0 && src.IntN(2) == 0 {
				v = options[j][k-1] + 1e-7*src.Float64()
			}
			options[j] = append(options[j], v)
		}
	}
	return NewGrid(lengthScale, options...)
}

// checkMeanBound grows the case's GP in three phases and, after each,
// requires |Mean − μ̃| ≤ δ at random grid points and at observed ones. It
// returns the largest |Mean − μ̃|/δ it saw.
func checkMeanBound(t testing.TB, c boundCase) (worst float64) {
	t.Helper()
	src := rng.New(c.seed)
	shape := blockShapes[c.options]
	grid := randomGrid(src, shape, c.lengthScale)
	meanY := 200 * (src.Float64() - 0.5)
	if c.centered {
		meanY = 0
	}
	g := NewGridGP(grid, c.signal, c.noiseToSignal*c.signal, meanY)
	random := func() []int32 {
		opts := make([]int32, 3*c.blocks)
		for k := range opts {
			opts[k] = int32(src.IntN(shape[k%3]))
		}
		return opts
	}
	var observed [][]int32
	check := func(opts []int32) {
		mu, delta := g.MeanBound(opts)
		exact := g.Mean(grid.Point(nil, opts))
		err := math.Abs(exact - mu)
		if !(err <= delta) {
			t.Fatalf("%+v, n=%d, point %v: Mean %.17g, bound %.17g ± %.3g", c, g.Len(), opts, exact, mu, delta)
		}
		if delta > 0 {
			worst = max(worst, err/delta)
		}
	}
	for _, adds := range []int{c.n / 3, c.n / 3, c.n - 2*(c.n/3)} {
		for i := 0; i < adds; i++ {
			opts := random()
			if len(observed) > 0 && src.Float64() < c.repeat {
				opts = slices.Clone(observed[src.IntN(len(observed))])
				if src.IntN(2) == 0 {
					// A neighbouring option in one coordinate: often within
					// 1e-7 of the repeated point's.
					k := src.IntN(len(opts))
					if opts[k]+1 < int32(shape[k%3]) {
						opts[k]++
					}
				}
			}
			y := meanY + math.Sqrt(c.signal)*2*(src.Float64()-0.5)
			if g.Add(grid.Point(nil, opts), opts, y) == nil {
				observed = append(observed, opts)
			}
		}
		for i := 0; i < 20; i++ {
			check(random())
		}
		for i := 0; i < 5 && len(observed) > 0; i++ {
			check(observed[src.IntN(len(observed))])
		}
	}
	return worst
}

// TestMeanBound checks MeanBound's error bound on random GPs over random
// grids: 1–6 blocks of 1, 27 or 256 options, 0–350 observations with
// repeated and near-repeated points (which drive |α| up), noise variance
// down to 1e-6 of the signal variance and length scales 0.01–10.
func TestMeanBound(t *testing.T) {
	src := rng.New(26)
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, src.Float64()) }
	cases := 40
	if testing.Short() {
		cases = 12
	}
	var worst float64
	for i := 0; i < cases; i++ {
		c := boundCase{
			seed:          src.Uint64(),
			blocks:        1 + i%6,
			options:       []int{1, 27, 256}[i%3],
			n:             src.IntN(351),
			repeat:        []float64{0, 0.2, 0.6}[src.IntN(3)],
			lengthScale:   logUniform(0.01, 10),
			signal:        logUniform(1e-3, 1e4),
			noiseToSignal: logUniform(1e-6, 1),
			centered:      i%4 == 0,
		}
		worst = max(worst, checkMeanBound(t, c))
	}
	t.Logf("largest |Mean − μ̃|/δ: %.3g", worst)
}

// TestMeanBoundSkipsRejectedPoints adds exact repeats to a GP whose noise
// is far below the rounding of its signal variance, so Add rejects some of
// them: the rejected points must stay out of the bound's sum, or every
// later observation's table factors would be misaligned.
func TestMeanBoundSkipsRejectedPoints(t *testing.T) {
	src := rng.New(7)
	grid := randomGrid(src, blockShapes[27], 0.5)
	g := NewGridGP(grid, 1e20, 1e-6, 0)
	rejected := 0
	for i := 0; i < 60; i++ {
		opts := []int32{int32(src.IntN(3)), int32(src.IntN(3)), 1, 2, 0, 1}
		if i%2 == 1 {
			opts = []int32{0, 0, 0, 2, 2, 2}
		}
		if g.Add(grid.Point(nil, opts), opts, 1e10*src.Normal()) != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no point was rejected; the case checks nothing")
	}
	for a := int32(0); a < 27; a++ {
		opts := []int32{a / 9, a / 3 % 3, a % 3, 2 - a%3, a / 9, 1}
		mu, delta := g.MeanBound(opts)
		if exact := g.Mean(grid.Point(nil, opts)); !(math.Abs(exact-mu) <= delta) {
			t.Fatalf("point %v after %d rejections: Mean %.17g, bound %.17g ± %.3g", opts, rejected, exact, mu, delta)
		}
	}
}

// TestMeanBoundUnderflow checks the bound where only its absolute term can
// cover the error: one observation at prior mean 0, length scale 0.01, and
// a probe whose one kernel, split over three coordinates, lands in the
// subnormal range (exponent 720–746). There exp(−a)·exp(−b)·exp(−c) and
// exp(−(a + b + c)) can differ in their last subnormal bits, or one of
// them be 0, while the relative term rounds to nothing.
func TestMeanBoundUnderflow(t *testing.T) {
	src := rng.New(11)
	absOnly := 0
	for i := 0; i < 30000; i++ {
		// Σ_j v_j² = A·2ℓ², split at random over the coordinates.
		a := 720 + 26*src.Float64()
		w := [3]float64{src.Float64(), src.Float64(), src.Float64()}
		var options [3][]float64
		for j := range options {
			options[j] = []float64{0, math.Sqrt(a * 2e-4 * w[j] / (w[0] + w[1] + w[2]))}
		}
		grid := NewGrid(0.01, options[:]...)
		g := NewGridGP(grid, 1, 1e-6, 0)
		origin, probe := []int32{0, 0, 0}, []int32{1, 1, 1}
		_ = g.Add(grid.Point(nil, origin), origin, 1)
		mu, delta := g.MeanBound(probe)
		exact := g.Mean(grid.Point(nil, probe))
		err := math.Abs(exact - mu)
		if !(err <= delta) {
			t.Fatalf("exponent %.4f over %v: Mean %g, bound %g ± %g", a, options, exact, mu, delta)
		}
		// With one observation at prior mean 0, δ's relative term is
		// 2·boundRel·|μ̃|.
		if err > 2*boundRel*math.Abs(mu) {
			absOnly++
		}
	}
	t.Logf("%d of 30000 probes needed the absolute term", absOnly)
}

// FuzzMeanBound explores TestMeanBound's inputs: seed, blocks, options per
// block, observations, repeat share, log-scale codes for the length scale,
// the signal variance and the noise-to-signal ratio, and a zero prior
// mean.
func FuzzMeanBound(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint16(120), uint8(80), uint8(128), uint8(128), uint8(0), false)
	f.Add(uint64(2), uint8(5), uint8(1), uint16(350), uint8(200), uint8(0), uint8(255), uint8(0), true)
	f.Add(uint64(3), uint8(0), uint8(0), uint16(40), uint8(255), uint8(255), uint8(0), uint8(255), false)
	f.Add(uint64(4), uint8(3), uint8(2), uint16(0), uint8(0), uint8(60), uint8(60), uint8(60), true)
	logScale := func(code uint8, lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, float64(code)/255)
	}
	f.Fuzz(func(t *testing.T, seed uint64, blocks, options uint8, n uint16, repeat, ls, sv, nv uint8, centered bool) {
		checkMeanBound(t, boundCase{
			seed:          seed,
			blocks:        int(blocks)%6 + 1,
			options:       []int{1, 27, 256}[int(options)%3],
			n:             int(n) % 351,
			repeat:        float64(repeat) / 255,
			lengthScale:   logScale(ls, 0.01, 10),
			signal:        logScale(sv, 1e-3, 1e4),
			noiseToSignal: logScale(nv, 1e-6, 1),
			centered:      centered,
		})
	})
}

// BenchmarkIncrementalGPMeanBound times one table-bound row against one
// exact Mean at n = 300, for points of 3 and 5 blocks on Aquatope's
// 256-option grid.
func BenchmarkIncrementalGPMeanBound(b *testing.B) {
	for _, blocks := range []int{3, 5} {
		src := rng.New(1)
		grid := randomGrid(src, blockShapes[256], 0.5)
		g := NewGridGP(grid, 1, 0.01, 0)
		point := func() []int32 {
			opts := make([]int32, 3*blocks)
			for k := range opts {
				opts[k] = int32(src.IntN(blockShapes[256][k%3]))
			}
			return opts
		}
		for g.Len() < 300 {
			opts := point()
			_ = g.Add(grid.Point(nil, opts), opts, src.Normal())
		}
		opts := point()
		p := grid.Point(nil, opts)
		g.MeanBound(opts)
		g.Mean(p)
		b.Run(fmt.Sprintf("blocks=%d/bound", blocks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFloat, _ = g.MeanBound(opts)
			}
		})
		b.Run(fmt.Sprintf("blocks=%d/exact", blocks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFloat = g.Mean(p)
			}
		})
	}
}
