package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sheriff/internal/alloctest"
)

func TestSolveIdentity(t *testing.T) {
	cost := [][]float64{
		{0, 9, 9},
		{9, 0, 9},
		{9, 9, 0},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 0 {
		t.Fatalf("Cost = %v, want 0", r.Cost)
	}
	for i, j := range r.Assign {
		if i != j {
			t.Fatalf("Assign = %v, want identity", r.Assign)
		}
	}
}

func TestSolveAntiDiagonal(t *testing.T) {
	cost := [][]float64{
		{9, 9, 1},
		{9, 1, 9},
		{1, 9, 9},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 3 {
		t.Fatalf("Cost = %v, want 3", r.Cost)
	}
}

func TestSolveClassicExample(t *testing.T) {
	// Known optimum: 1500+2000+2500? Classic 3x3 worker/job instance.
	cost := [][]float64{
		{2500, 4000, 3500},
		{4000, 6000, 3500},
		{2000, 4000, 2500},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: row0->col1 (4000), row1->col2 (3500), row2->col0 (2000) = 9500.
	if r.Cost != 9500 {
		t.Fatalf("Cost = %v, want 9500 (assign %v)", r.Cost, r.Assign)
	}
}

func TestSolveRectangularWide(t *testing.T) {
	// 2 rows, 4 columns: both rows matched to their cheapest distinct cols.
	cost := [][]float64{
		{5, 1, 8, 9},
		{5, 1, 2, 9},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != 3 { // row0->col1 (1), row1->col2 (2)
		t.Fatalf("Cost = %v, want 3 (assign %v)", r.Cost, r.Assign)
	}
	if r.Assign[0] == r.Assign[1] {
		t.Fatal("two rows matched the same column")
	}
}

func TestSolveRectangularTall(t *testing.T) {
	// 3 rows, 1 column: only one row can match.
	cost := [][]float64{{5}, {2}, {7}}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for i, j := range r.Assign {
		if j != -1 {
			matched++
			if i != 1 {
				t.Fatalf("wrong row matched: %v", r.Assign)
			}
		}
	}
	if matched != 1 || r.Cost != 2 {
		t.Fatalf("matched=%d cost=%v", matched, r.Cost)
	}
}

func TestSolveForbiddenPairs(t *testing.T) {
	cost := [][]float64{
		{Forbidden, 3},
		{4, Forbidden},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Assign[0] != 1 || r.Assign[1] != 0 || r.Cost != 7 {
		t.Fatalf("assign=%v cost=%v", r.Assign, r.Cost)
	}
}

func TestSolveAllForbiddenRowUnmatched(t *testing.T) {
	cost := [][]float64{
		{Forbidden, Forbidden},
		{1, 2},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Assign[0] != -1 {
		t.Fatalf("fully forbidden row should be unmatched: %v", r.Assign)
	}
	if r.Assign[1] != 0 || r.Cost != 1 {
		t.Fatalf("assign=%v cost=%v", r.Assign, r.Cost)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := Solve([][]float64{{}}); err == nil {
		t.Error("zero-column matrix accepted")
	}
	if _, err := Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestSolveSingleCell(t *testing.T) {
	r, err := Solve([][]float64{{42}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Assign[0] != 0 || r.Cost != 42 {
		t.Fatalf("single cell wrong: %+v", r)
	}
}

func TestSolveNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 0},
		{0, -5},
	}
	r, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost != -10 {
		t.Fatalf("Cost = %v, want -10", r.Cost)
	}
}

// bruteForce finds the optimal assignment by exhaustive permutation
// (square matrices, n ≤ 7).
func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	best := math.Inf(1)
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			total := 0.0
			for i, j := range cols {
				total += cost[i][j]
			}
			if total < best {
				best = total
			}
			return
		}
		for i := k; i < n; i++ {
			cols[k], cols[i] = cols[i], cols[k]
			permute(k + 1)
			cols[k], cols[i] = cols[i], cols[k]
		}
	}
	permute(0)
	return best
}

// Property: the Hungarian solution matches brute force on random square
// instances.
func TestSolveMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%5) + 2 // 2..6
		rng := rand.New(rand.NewSource(seed))
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64() * 100)
			}
		}
		r, err := Solve(cost)
		if err != nil {
			return false
		}
		return math.Abs(r.Cost-bruteForce(cost)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: no column is assigned twice.
func TestSolveInjectiveProperty(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		rows := int(rRaw%6) + 1
		cols := int(cRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		cost := make([][]float64, rows)
		for i := range cost {
			cost[i] = make([]float64, cols)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 50
			}
		}
		r, err := Solve(cost)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		matched := 0
		for _, j := range r.Assign {
			if j == -1 {
				continue
			}
			if seen[j] {
				return false
			}
			seen[j] = true
			matched++
		}
		want := rows
		if cols < want {
			want = cols
		}
		return matched == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestReservedWorkspaceSolvesWithoutAllocating pins Reserve: a workspace
// reserved for rows × cols solves every instance within that size, wide or
// tall, from its first solve on, without allocating beyond what Reserve
// itself does, and solves it as a fresh workspace does.
func TestReservedWorkspaceSolvesWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	instances := [][][]float64{instance(rng, 6, 30, false, false), instance(rng, 6, 4, true, true), instance(rng, 1, 1, false, false)}
	alloctest.Count(t, "reserve", func() {
		var w Workspace
		w.Reserve(6, 30)
	})
	alloctest.Count(t, "solve", func() {
		var w Workspace
		w.Reserve(6, 30)
		for _, cost := range instances {
			w.Solve(cost)
		}
	})
	var w Workspace
	w.Reserve(6, 30)
	for _, cost := range instances {
		got, err := w.Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Assign, want.Assign) || got.Cost != want.Cost {
			t.Errorf("reserved solve = %v (cost %v), fresh = %v (cost %v)", got.Assign, got.Cost, want.Assign, want.Cost)
		}
	}
}
