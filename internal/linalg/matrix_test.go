package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// rows builds a matrix from equal-length rows.
func rows(r [][]float64) *Matrix {
	m := NewMatrix(len(r), len(r[0]))
	for i := range r {
		copy(m.Data[i*m.Cols:], r[i])
	}
	return m
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatal("new matrix not zeroed")
			}
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestTranspose(t *testing.T) {
	m := rows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatal("Transpose wrong")
	}
}

func TestMul(t *testing.T) {
	a := rows([][]float64{{1, 2}, {3, 4}})
	b := rows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestMulVec(t *testing.T) {
	a := rows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := rows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := rows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := rows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square should error")
	}
	if _, err := Solve(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Error("bad rhs length should error")
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2 + 3x, fit with design [1, x].
	x := rows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-2) > 1e-8 || math.Abs(beta[1]-3) > 1e-8 {
		t.Fatalf("beta = %v, want [2 3]", beta)
	}
}

func TestLeastSquaresNoisyFit(t *testing.T) {
	x := rows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}})
	y := []float64{1.1, 2.9, 5.2, 6.8, 9.1}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[1]-2) > 0.2 {
		t.Fatalf("slope = %v, want ≈ 2", beta[1])
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(1, 2), []float64{1}, 0); err == nil {
		t.Fatal("underdetermined should error")
	}
}

func TestLeastSquaresCollinearFallsBackToRidge(t *testing.T) {
	// Perfectly collinear columns: pure OLS is singular; the automatic
	// ridge retry should still return a finite solution.
	x := rows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	beta, err := LeastSquares(x, []float64{2, 4, 6}, 0)
	if err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
	for _, b := range beta {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("non-finite beta %v", beta)
		}
	}
}

// Property: Solve(A, A·x) returns x for random well-conditioned A.
func TestSolveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%4+2) % 6
		if n < 2 {
			n = 2
		}
		a := NewMatrix(n, n)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000)/100 - 5
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, next())
			}
			a.Set(i, i, a.At(i, i)+10) // diagonal dominance => well-conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = next()
		}
		b, err := a.MulVec(x)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: (Aᵀ)ᵀ = A.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(rows, cols uint8, vals []float64) bool {
		r, c := int(rows%5)+1, int(cols%5)+1
		m := NewMatrix(r, c)
		for i := range m.Data {
			if i < len(vals) {
				m.Data[i] = vals[i]
			}
		}
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			v1, v2 := m.Data[i], tt.Data[i]
			if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
