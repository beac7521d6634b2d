// Package linalg provides the small dense linear-algebra kernel needed by
// the GAM and linear-regression learners: row-major matrices, symmetric
// products, and Cholesky-based SPD solves.
package linalg

import (
	"fmt"
	"math"

	"mpicollpred/internal/floats"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// New returns a zero Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec returns m · x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// AtA returns mᵀ·m (the Gram matrix), optionally weighted: when w is
// non-nil, returns mᵀ·diag(w)·m.
func (m *Matrix) AtA(w []float64) *Matrix {
	out := New(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		for a := 0; a < m.Cols; a++ {
			va := wi * row[a]
			if floats.Exact(va, 0) { // skipping exact zeros never changes the sum
				continue
			}
			outRow := out.Data[a*m.Cols:]
			for b := a; b < m.Cols; b++ {
				outRow[b] += va * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			out.Set(b, a, out.At(a, b))
		}
	}
	return out
}

// AtV returns mᵀ·v, optionally weighted by w: mᵀ·diag(w)·v.
func (m *Matrix) AtV(v, w []float64) []float64 {
	if len(v) != m.Rows {
		panic("linalg: AtV dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		wi := v[i]
		if w != nil {
			wi *= w[i]
		}
		if floats.Exact(wi, 0) { // skipping exact zeros never changes the sum
			continue
		}
		row := m.Row(i)
		for j, x := range row {
			out[j] += wi * x
		}
	}
	return out
}

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive definite A. It fails on non-SPD input.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("linalg: matrix not positive definite (pivot %d = %g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveChol solves A·x = b given the Cholesky factor L of A.
func SolveChol(l *Matrix, b []float64) []float64 {
	n := l.Rows
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// FactorSPD returns the Cholesky factor of a symmetric positive
// (semi-)definite A, escalating a diagonal ridge until the factorization
// succeeds. It is the workhorse of the penalized least-squares fits, where
// the penalty usually — but not always — makes the system strictly
// definite; every right-hand side then solves against the one factor with
// SolveChol.
func FactorSPD(a *Matrix) (*Matrix, error) {
	// Scale the ridge to the matrix magnitude.
	maxDiag := 0.0
	for i := 0; i < a.Rows; i++ {
		if d := math.Abs(a.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	if floats.Exact(maxDiag, 0) { // all-zero matrix: any positive ridge scale works
		maxDiag = 1
	}
	ridge := 0.0
	for attempt := 0; attempt < 12; attempt++ {
		work := New(a.Rows, a.Cols)
		copy(work.Data, a.Data)
		if ridge > 0 {
			for i := 0; i < a.Rows; i++ {
				work.Add(i, i, ridge)
			}
		}
		if l, err := Cholesky(work); err == nil {
			return l, nil
		}
		if floats.Exact(ridge, 0) { // 0 is the assigned not-yet-regularized sentinel
			ridge = maxDiag * 1e-12
		} else {
			ridge *= 100
		}
	}
	return nil, fmt.Errorf("linalg: SPD solve failed even with ridge %g", ridge)
}

// SolveSPD solves A·x = b for symmetric positive (semi-)definite A through
// FactorSPD and SolveChol.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := FactorSPD(a)
	if err != nil {
		return nil, err
	}
	return SolveChol(l, b), nil
}
