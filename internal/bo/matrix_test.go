package bo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// The dense linear algebra below backs the reference GP in gp_test.go:
// symmetric positive-definite matrices, Cholesky factorization and
// triangular solves.

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		// Shape errors in this package are caller bugs (dimensions derive
		// from dataset sizes, never user input), so they panic like the
		// standard library's slice bounds do.
		panic("bo: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A. It returns an error when A is not
// (numerically) positive definite.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factorizes a. Only the lower triangle of a is read.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("bo: cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("bo: matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return &Cholesky{L: l}, nil
}

// SolveVec solves A·x = b using the factorization (forward then backward
// substitution) and returns x.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic(fmt.Sprintf("bo: solve with b of length %d for n=%d", len(b), n))
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.L.At(i, k) * y[k]
		}
		y[i] = sum / c.L.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= c.L.At(k, i) * x[k]
		}
		x[i] = sum / c.L.At(i, i)
	}
	return x
}

// ForwardSolve solves L·y = b and returns y.
func (c *Cholesky) ForwardSolve(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic(fmt.Sprintf("bo: forward solve with b of length %d for n=%d", len(b), n))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.L.At(i, k) * y[k]
		}
		y[i] = sum / c.L.At(i, i)
	}
	return y
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,√2]].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	if math.Abs(ch.L.At(0, 0)-2) > 1e-12 ||
		math.Abs(ch.L.At(1, 0)-1) > 1e-12 ||
		math.Abs(ch.L.At(1, 1)-math.Sqrt2) > 1e-12 {
		t.Errorf("L = %v", ch.L.Data)
	}
}

func TestCholeskySolve(t *testing.T) {
	// Solve A·x = b for A = [[4,2],[2,3]], b = [10, 8] → x = [7/4, 3/2].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec([]float64{10, 8})
	if math.Abs(x[0]-1.75) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Errorf("non-SPD matrix factorized")
	}
	b := NewMatrix(2, 3)
	if _, err := NewCholesky(b); err == nil {
		t.Errorf("non-square matrix factorized")
	}
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	// Random SPD matrices (A = MᵀM + n·I) solve correctly.
	f := func(seedVals []float64) bool {
		n := 4
		if len(seedVals) < n*n+n {
			return true
		}
		m := NewMatrix(n, n)
		for i := 0; i < n*n; i++ {
			v := seedVals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0.5
			}
			m.Data[i] = math.Mod(v, 3)
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += m.At(k, i) * m.At(k, j)
				}
				if i == j {
					s += float64(n)
				}
				a.Set(i, j, s)
			}
		}
		b := make([]float64, n)
		for i := range b {
			v := seedVals[n*n+i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			b[i] = math.Mod(v, 5)
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		// Verify A·x ≈ b.
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForwardSolve(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	ch, _ := NewCholesky(a)
	y := ch.ForwardSolve([]float64{2, 1})
	// L = [[2,0],[1,√2]]; y0 = 1; y1 = (1−1)/√2 = 0.
	if math.Abs(y[0]-1) > 1e-12 || math.Abs(y[1]) > 1e-12 {
		t.Errorf("y = %v", y)
	}
}
