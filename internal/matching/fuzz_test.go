package matching

import (
	"math"
	"testing"
)

// FuzzSolve feeds arbitrary matrices to the Hungarian solver: it must never
// panic, every returned assignment must be injective with a cost equal to
// the sum of its chosen cells, and a Workspace reused across the fuzzer's
// inputs must agree with the allocating oracle bit for bit.
func FuzzSolve(f *testing.F) {
	f.Add(uint8(2), uint8(2), int64(1))
	f.Add(uint8(5), uint8(5), int64(42))
	f.Add(uint8(3), uint8(6), int64(7))
	f.Add(uint8(6), uint8(2), int64(9))
	var w Workspace
	f.Fuzz(func(t *testing.T, rRaw, cRaw uint8, seed int64) {
		rows, cols := int(rRaw%7)+1, int(cRaw%7)+1
		cost := make([][]float64, rows)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			v := float64((s >> 12) % 1000)
			if s%13 == 0 {
				return Forbidden
			}
			return v
		}
		for i := range cost {
			cost[i] = make([]float64, cols)
			for j := range cost[i] {
				cost[i][j] = next()
			}
		}
		r, err := w.Solve(cost)
		if err != nil {
			t.Fatalf("Solve errored on valid shape: %v", err)
		}
		want, _ := referenceSolve(cost)
		if !sameResult(r, want) {
			t.Fatalf("reused workspace gives %v cost %v, oracle %v cost %v", r.Assign, r.Cost, want.Assign, want.Cost)
		}
		seen := map[int]bool{}
		total := 0.0
		for i, j := range r.Assign {
			if j == -1 {
				continue
			}
			if j < 0 || j >= cols {
				t.Fatalf("assignment out of range: %d", j)
			}
			if seen[j] {
				t.Fatalf("column %d assigned twice", j)
			}
			seen[j] = true
			if math.IsInf(cost[i][j], 1) {
				t.Fatalf("forbidden cell chosen at (%d,%d)", i, j)
			}
			total += cost[i][j]
		}
		if math.Abs(total-r.Cost) > 1e-6 {
			t.Fatalf("cost %v does not match cells %v", r.Cost, total)
		}
	})
}
