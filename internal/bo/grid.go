package bo

import (
	"math"
	"slices"
)

// Grid is an option grid a GP's points lie on. A point's feature vector is
// a run of blocks of d = len(options) coordinates, and coordinate j of
// every block takes one of the values options[j]. So a block is one of
// C = Π_j len(options[j]) option tuples v_0 … v_{C−1}, and the RBF kernel,
// a product over coordinates, is in exact arithmetic a product over
// blocks of one C×C table:
//
//	k(p, x) = σf²·exp(−‖p − x‖²/(2ℓ²)) = σf²·Π_b T[p_b][x_b],
//	T[a][c] = exp(−‖v_a − v_c‖²/(2ℓ²)).
//
// A point is given by its option indices, one per coordinate: coordinate k
// takes options[k mod d][opts[k]]. Block b's tuple index is the
// mixed-radix number of its d option indices, the first most significant.
// The table holds C² float64s, 512 KB for Aquatope's 256 configurations per
// stage. A Grid is immutable and safe for concurrent use.
type Grid struct {
	lengthScale float64
	options     [][]float64
	size        int       // C
	table       []float64 // T[a][c] at a·C + c
}

// NewGrid builds the kernel table of the grid over options at the given
// length scale (≤ 0 means 1, as for NewIncrementalGP); options must not be
// empty. Each entry is a product of per-coordinate factors, so the table
// costs Σ_j len(options[j])² math.Exp calls and d − 1 multiplies per entry.
func NewGrid(lengthScale float64, options ...[]float64) *Grid {
	if len(options) == 0 {
		panic("bo: a grid needs at least one coordinate per block")
	}
	if lengthScale <= 0 {
		lengthScale = 1
	}
	t := &Grid{lengthScale: lengthScale, options: options, size: 1, table: []float64{1}}
	for _, opts := range options {
		n := len(opts)
		f := make([]float64, n*n)
		for i, a := range opts {
			for j, b := range opts {
				d := a - b
				f[i*n+j] = math.Exp(-d * d / (2 * lengthScale * lengthScale))
			}
		}
		// The Kronecker product of the table so far with this coordinate's
		// factors: entry (a·n + i, c·n + j) is T[a][c]·f[i][j].
		c, next := t.size, make([]float64, t.size*n*t.size*n)
		for a := 0; a < c; a++ {
			for i := 0; i < n; i++ {
				row := next[(a*n+i)*c*n : (a*n+i+1)*c*n]
				for col, tac := range t.table[a*c : (a+1)*c] {
					for j, fij := range f[i*n : (i+1)*n] {
						row[col*n+j] = tac * fij
					}
				}
			}
		}
		t.size, t.table = c*n, next
	}
	return t
}

// Point stores in dst's backing array, when it is large enough, the
// feature vector of the grid point with option indices opts.
func (t *Grid) Point(dst []float64, opts []int32) []float64 {
	dst = dst[:0]
	for k, o := range opts {
		dst = append(dst, t.options[k%len(t.options)][o])
	}
	return dst
}

// block returns the tuple index of block b of the point with option
// indices opts.
func (t *Grid) block(opts []int32, b int) int32 {
	d := len(t.options)
	var a int32
	for j, o := range opts[b*d : (b+1)*d] {
		a = a*int32(len(t.options[j])) + o
	}
	return a
}

// The mean bound's error. MeanBound computes μ̃ = meanY + s·Σ_i α_i·P_i
// with P_i = Π_b T[p_b][x_i,b], where Mean computes meanY + Σ_i α_i·K_i
// with K_i = s·exp(−Σ_k d_k²/(2ℓ²)) (s = σf², u = 2⁻⁵³, n observations,
// m blocks of three coordinates as on Aquatope's grid). Both read the same
// d_k = p_k − x_k, so they differ by rounding only:
//
//   - Every d_k² is ≥ 0, so Mean's exponent, one sum of 3m terms, is
//     within a relative (3m + 2)·u of the exact A = Σ_k d_k²/(2ℓ²), and
//     the sum of the table's 3m per-coordinate exponents within 3·u. A
//     result in the normal range needs A ≤ 708.4, so the two exponentials
//     differ by a relative ≤ 708.4·(3m + 5)·u ≈ 1.6e-12 at m = 5. The
//     3m + 1 calls of math.Exp (a few ulps each) and the 3m multiplies of
//     the table's product add O(m)·1e-15.
//   - Products that reach the subnormal range, which a length scale of
//     0.01 reaches with single factors, are off by at most one subnormal
//     spacing 2⁻¹⁰⁷⁴ per rounding, and no factor exceeds 1 to enlarge it:
//     under s·(4m + 4)·2⁻¹⁰⁷⁴ per kernel in all, which boundAbs·s covers.
//   - Each sum of n products rounds within γ_n·Σ_i |α_i|·K_i (γ_n ≈ n·u,
//     4e-14 at n = 350), and the final addition within u·(|meanY| + |μ|).
//
// So |Mean − μ̃| ≤ boundRel·(s·Σ_i |α_i|·P_i + |meanY| + |μ̃|) +
// boundAbs·s·Σ_i |α_i|. boundRel is over 500 times the rounding terms at
// m = 5 and n = 350, and still above them at m = 1,000 and n = 10⁶.
const (
	boundRel = 1e-9
	boundAbs = 0x1p-1000
)

// MeanBound returns μ̃, the posterior mean at the grid point with option
// indices opts computed from the grid's kernel table, and δ such that
// |Mean(p) − μ̃| ≤ δ for p = Point(opts). It calls no math.Exp: each
// observation costs one table load and one multiply per block. The GP must
// be over a grid, and its points have at least one block.
func (g *IncrementalGP) MeanBound(opts []int32) (mu, delta float64) {
	if len(g.x) == 0 {
		return g.meanY, 0
	}
	g.refreshAlpha()
	g.Work.BoundRows++
	// prod[i] becomes Π_b T[p_b][x_i,b], one block at a time.
	t := g.grid
	prod := slices.Grow(g.prod[:0], len(g.x))[:len(g.x)]
	for b, xs := range g.blocks {
		a := int(t.block(opts, b))
		row := t.table[a*t.size : (a+1)*t.size]
		prod := prod[:len(xs)]
		if b == 0 {
			for i, x := range xs {
				prod[i] = row[x]
			}
			continue
		}
		for i, x := range xs {
			prod[i] *= row[x]
		}
	}
	g.prod = prod
	var sum, mag float64
	for i, k := range prod {
		sum += g.alpha[i] * k
		mag += g.absAlpha[i] * k
	}
	s := g.SignalVar
	mu = g.meanY + s*sum
	return mu, boundRel*(s*mag+math.Abs(g.meanY)+math.Abs(mu)) + boundAbs*s*g.absAlphaSum
}
