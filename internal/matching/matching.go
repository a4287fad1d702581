// Package matching implements minimum-weight bipartite matching via the
// Kuhn–Munkres (Hungarian) algorithm with potentials ("KM with
// relaxation", the paper's choice for Alg. 3's MinimalWeightedMatching).
// Complexity O(n²m) for an n×m cost matrix with n ≤ m — O(n³) on square
// instances, as the paper states.
//
// Rectangular instances are supported directly: with fewer rows than
// columns every row is matched; forbidden pairs are expressed with
// +Inf cost and rows whose only options are forbidden stay unmatched.
package matching

import (
	"errors"
	"math"
	"slices"
)

// Forbidden marks an impossible assignment in the cost matrix.
var Forbidden = math.Inf(1)

// ErrBadShape is returned for empty or ragged cost matrices.
var ErrBadShape = errors.New("matching: cost matrix must be non-empty and rectangular")

// Result holds a minimum-weight matching.
type Result struct {
	// Assign[i] is the column matched to row i, or -1 if row i could not
	// be matched (all its finite-cost columns were taken or none exist).
	Assign []int
	// Cost is the total weight of the matched pairs.
	Cost float64
}

// Solve computes a minimum-total-weight assignment of rows to columns.
// If rows > columns, only `columns` rows are matched (the cheapest
// overall); unmatched rows get -1.
func Solve(cost [][]float64) (*Result, error) {
	var w Workspace
	res, err := w.Solve(cost)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Workspace is the solver's working memory, kept by a caller that solves
// again and again (a shim, once per matching round). The zero value is
// ready; once it has grown to the largest instance a solve allocates
// nothing. It is not safe for concurrent use.
type Workspace struct {
	a             []float64 // rows × width padded weights, row-major
	u, v, minv    []float64
	way, matchCol []int
	used          []bool
	assign        []int
}

// Reserve sizes w for every instance of at most rows × cols, carving its
// buffers from one array per element type, so that no solve of that size
// allocates.
func (w *Workspace) Reserve(rows, cols int) {
	width := max(rows, cols)
	floats := make([]float64, rows*width+rows+1+2*(width+1))
	w.a, floats = floats[:0:rows*width], floats[rows*width:]
	w.u, floats = floats[:0:rows+1], floats[rows+1:]
	w.v, w.minv = floats[:0:width+1], floats[width+1:][:0:width+1]
	ints := make([]int, 2*(width+1)+rows)
	w.way, w.matchCol, w.assign = ints[:0:width+1], ints[width+1:][:0:width+1], ints[2*(width+1):][:0:rows]
	w.used = make([]bool, 0, width+1)
}

// Solve is the package function over w's memory. The returned Assign is
// w's and is overwritten by the next solve.
func (w *Workspace) Solve(cost [][]float64) (Result, error) {
	n := len(cost)
	if n == 0 {
		return Result{}, ErrBadShape
	}
	m := len(cost[0])
	for _, row := range cost {
		if len(row) != m {
			return Result{}, ErrBadShape
		}
	}
	if m == 0 {
		return Result{}, ErrBadShape
	}

	// The potentials-based Hungarian algorithm needs rows <= cols; if the
	// instance is taller than wide, pad with dummy columns of large cost
	// and drop those assignments afterwards. Forbidden (+Inf) entries are
	// replaced by a finite "big" sentinel and filtered at the end.
	big := 1.0
	for _, row := range cost {
		for _, v := range row {
			if !math.IsInf(v, 1) && math.Abs(v) > big {
				big = math.Abs(v)
			}
		}
	}
	big = big*float64(n+m+1) + 1

	rows, cols := n, m
	width := cols
	if rows > cols {
		width = rows // pad columns
	}
	w.a = slices.Grow(w.a[:0], rows*width)[:rows*width]
	a := w.a
	for i := 0; i < rows; i++ {
		for j := 0; j < width; j++ {
			switch {
			case j >= cols:
				a[i*width+j] = big // dummy column
			case math.IsInf(cost[i][j], 1):
				a[i*width+j] = big
			default:
				a[i*width+j] = cost[i][j]
			}
		}
	}

	// Potentials u (rows), v (cols); matchCol[j] = row matched to column j
	// (1-based, 0 = free); way[j] = previous column on the alternating path
	// through column j. All start at zero, as freshly made slices would.
	w.u = slices.Grow(w.u[:0], rows+1)[:rows+1]
	w.v = slices.Grow(w.v[:0], width+1)[:width+1]
	w.way = slices.Grow(w.way[:0], width+1)[:width+1]
	w.matchCol = slices.Grow(w.matchCol[:0], width+1)[:width+1]
	w.minv = slices.Grow(w.minv[:0], width+1)[:width+1]
	w.used = slices.Grow(w.used[:0], width+1)[:width+1]
	u, v, way, matchCol, minv, used := w.u, w.v, w.way, w.matchCol, w.minv, w.used
	clear(u)
	clear(v)
	clear(way)
	clear(matchCol)
	// 1-based loop (classic e-maxx formulation).
	for i := 1; i <= rows; i++ {
		matchCol[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= width; j++ {
				if used[j] {
					continue
				}
				cur := a[(i0-1)*width+j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= width; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		// Augment along the alternating path.
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}

	w.assign = slices.Grow(w.assign[:0], rows)[:rows]
	res := Result{Assign: w.assign}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	for j := 1; j <= width; j++ {
		i := matchCol[j]
		if i == 0 {
			continue
		}
		col := j - 1
		if col >= cols {
			continue // dummy column: row stays unmatched
		}
		if math.IsInf(cost[i-1][col], 1) {
			continue // forbidden entry chosen only because nothing better existed
		}
		res.Assign[i-1] = col
		res.Cost += cost[i-1][col]
	}
	return res, nil
}
