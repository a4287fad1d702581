// Package linalg provides the small dense linear-algebra kernel used by the
// ARIMA estimators (ordinary least squares via normal equations) and by the
// NARNET trainer. It is deliberately minimal: row-major dense matrices,
// Gaussian elimination with partial pivoting, and least-squares solving.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			rowB := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j := range rowB {
				rowOut[j] += a * rowB[j]
			}
		}
	}
	return out, nil
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d · vec(%d)", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			sum += row[j] * x
		}
		out[i] = sum
	}
	return out, nil
}

// ErrSingular indicates the coefficient matrix is (numerically) singular.
var ErrSingular = errors.New("linalg: singular matrix")

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	aug := make([][]float64, n)
	for i := 0; i < n; i++ {
		aug[i] = make([]float64, n+1)
		copy(aug[i], a.Data[i*n:(i+1)*n])
		aug[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aug[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		pv := aug[col][col]
		for r := col + 1; r < n; r++ {
			f := aug[r][col] / pv
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := aug[i][n]
		for j := i + 1; j < n; j++ {
			sum -= aug[i][j] * x[j]
		}
		x[i] = sum / aug[i][i]
	}
	return x, nil
}

// LeastSquares solves min ‖X·β − y‖² via the regularized normal equations
// (XᵀX + ridge·I)β = Xᵀy. A tiny default ridge keeps near-collinear ARIMA
// design matrices solvable; pass ridge = 0 for pure OLS.
func LeastSquares(x *Matrix, y []float64, ridge float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("linalg: design has %d rows, response has %d", x.Rows, len(y))
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system (%d rows, %d cols)", x.Rows, x.Cols)
	}
	xt := x.Transpose()
	xtx, err := xt.Mul(x)
	if err != nil {
		return nil, err
	}
	if ridge > 0 {
		for i := 0; i < xtx.Rows; i++ {
			xtx.Set(i, i, xtx.At(i, i)+ridge)
		}
	}
	xty, err := xt.MulVec(y)
	if err != nil {
		return nil, err
	}
	beta, err := Solve(xtx, xty)
	if err != nil && errors.Is(err, ErrSingular) && ridge == 0 {
		// Retry once with a small ridge before giving up.
		return LeastSquares(x, y, 1e-8)
	}
	return beta, err
}
