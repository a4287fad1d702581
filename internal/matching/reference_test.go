package matching

// This file keeps Solve as it stood before the reusable Workspace: fresh
// padded rows, potentials and per-row minv/used slices on every call. It is
// the oracle of TestWorkspaceMatchesReference; do not "improve" this copy.

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSolve is the allocating Solve, verbatim.
func referenceSolve(cost [][]float64) (*Result, error) {
	n := len(cost)
	if n == 0 {
		return nil, ErrBadShape
	}
	m := len(cost[0])
	for _, row := range cost {
		if len(row) != m {
			return nil, ErrBadShape
		}
	}
	if m == 0 {
		return nil, ErrBadShape
	}

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
	a := make([][]float64, rows)
	for i := range a {
		a[i] = make([]float64, width)
		for j := 0; j < width; j++ {
			switch {
			case j >= cols:
				a[i][j] = big // dummy column
			case math.IsInf(cost[i][j], 1):
				a[i][j] = big
			default:
				a[i][j] = cost[i][j]
			}
		}
	}

	u := make([]float64, rows+1)
	v := make([]float64, width+1)
	way := make([]int, width+1)
	matchCol := make([]int, width+1)
	for j := range matchCol {
		matchCol[j] = 0 // 1-based sentinel; 0 = free
	}
	for i := 1; i <= rows; i++ {
		matchCol[0] = i
		j0 := 0
		minv := make([]float64, width+1)
		used := make([]bool, width+1)
		for j := range minv {
			minv[j] = math.Inf(1)
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
				cur := a[i0-1][j-1] - u[i0] - v[j]
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
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}

	res := &Result{Assign: make([]int, rows)}
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
			continue
		}
		if math.IsInf(cost[i-1][col], 1) {
			continue
		}
		res.Assign[i-1] = col
		res.Cost += cost[i-1][col]
	}
	return res, nil
}

// instance draws a rows × cols matrix of fractional weights of one
// instance-wide magnitude, so that potentials left from an instance of
// another magnitude would round differently. When tied, every cell takes
// one of three levels, so the solver's tie order decides. A share of cells
// is Forbidden and, when allForbidden, one row is Forbidden throughout.
func instance(rng *rand.Rand, rows, cols int, tied, allForbidden bool) [][]float64 {
	cost := make([][]float64, rows)
	dead := rng.Intn(rows)
	scale := math.Pow(10, float64(rng.Intn(9)-3))
	weight := func() float64 { return (rng.Float64()*200 - 20) * scale }
	levels := [3]float64{weight(), weight(), weight()}
	for i := range cost {
		cost[i] = make([]float64, cols)
		for j := range cost[i] {
			switch {
			case allForbidden && i == dead, rng.Intn(6) == 0:
				cost[i][j] = Forbidden
			case tied:
				cost[i][j] = levels[rng.Intn(3)]
			default:
				cost[i][j] = weight()
			}
		}
	}
	return cost
}

// sameResult reports whether a Workspace result equals the oracle's: the
// same Assign and the same bits of Cost.
func sameResult(got Result, want *Result) bool {
	if len(got.Assign) != len(want.Assign) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return false
	}
	for i := range got.Assign {
		if got.Assign[i] != want.Assign[i] {
			return false
		}
	}
	return true
}

// TestWorkspaceMatchesReference runs one Workspace over square, wide, tall,
// all-Forbidden-row and tied instances in sequence, shrinking and growing,
// and holds every result to the allocating oracle: the same Assign and the
// same bits of Cost. Potentials, paths or matches left over from a larger
// solve would show as a different assignment.
func TestWorkspaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var w Workspace
	shapes := []struct {
		name       string
		rows, cols func() int
	}{
		{"square", func() int { return 1 + rng.Intn(9) }, nil},
		{"wide", func() int { return 1 + rng.Intn(6) }, func() int { return 7 + rng.Intn(24) }},
		{"tall", func() int { return 7 + rng.Intn(10) }, func() int { return 1 + rng.Intn(6) }},
	}
	for trial := 0; trial < 1500; trial++ {
		sh := shapes[trial%len(shapes)]
		rows := sh.rows()
		cols := rows
		if sh.cols != nil {
			cols = sh.cols()
		}
		tied, allForbidden := trial%4 == 1, trial%5 == 2
		cost := instance(rng, rows, cols, tied, allForbidden)
		want, err := referenceSolve(cost)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("trial %d (%s %d×%d, tied %v, forbidden row %v): workspace gives %v cost %v, oracle %v cost %v",
				trial, sh.name, rows, cols, tied, allForbidden, got.Assign, got.Cost, want.Assign, want.Cost)
		}
		if wrapped, _ := Solve(cost); !sameResult(*wrapped, want) {
			t.Fatalf("trial %d: Solve gives %v cost %v, oracle %v cost %v", trial, wrapped.Assign, wrapped.Cost, want.Assign, want.Cost)
		}
	}
	for _, bad := range [][][]float64{nil, {{}}, {{1, 2}, {3}}} {
		if _, err := w.Solve(bad); err != ErrBadShape {
			t.Errorf("Workspace.Solve(%v) = %v, want ErrBadShape", bad, err)
		}
	}
}

// TestWorkspaceSteadyStateAllocs is the solver's allocation gate (CI
// "Allocation gate" step): once a Workspace has solved an instance, solving
// one no larger allocates nothing.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big, small := instance(rng, 6, 30, false, false), instance(rng, 4, 12, true, true)
	var w Workspace
	if _, err := w.Solve(big); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		w.Solve(big)
		w.Solve(small)
	})
	if allocs != 0 {
		t.Errorf("a warm Workspace allocates %v times per two solves, want 0", allocs)
	}
}
