package kmedian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lineInstance places n points on a line with |i-j| distances.
func lineInstance(n, k int) *Instance {
	cost := make([][]float64, n)
	idx := make([]int, n)
	for i := range cost {
		idx[i] = i
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = math.Abs(float64(i - j))
		}
	}
	return &Instance{Cost: cost, Clients: idx, Facilities: idx, K: k}
}

// randomMetricInstance embeds n points uniformly in the unit square and
// uses Euclidean distances (a true metric, as the guarantee requires).
func randomMetricInstance(n, k int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	cost := make([][]float64, n)
	idx := make([]int, n)
	for i := range cost {
		idx[i] = i
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	return &Instance{Cost: cost, Clients: idx, Facilities: idx, K: k}
}

func TestValidate(t *testing.T) {
	if err := (&Instance{}).Validate(); err == nil {
		t.Error("empty instance accepted")
	}
	in := lineInstance(5, 2)
	if err := in.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	in.K = 9
	if err := in.Validate(); err == nil {
		t.Error("K > facilities accepted")
	}
	in = lineInstance(5, 2)
	in.Clients = []int{7}
	if err := in.Validate(); err == nil {
		t.Error("out-of-range client accepted")
	}
	in = lineInstance(5, 2)
	in.Cost[1] = in.Cost[1][:2]
	if err := in.Validate(); err == nil {
		t.Error("ragged cost accepted")
	}
}

func TestExactTrivial(t *testing.T) {
	// Two clusters on a line: {0,1,2} and {10,11,12} (as indices scaled).
	in := lineInstance(6, 2)
	// Stretch the gap between index 2 and 3.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a, b := float64(i), float64(j)
			if i >= 3 {
				a += 50
			}
			if j >= 3 {
				b += 50
			}
			in.Cost[i][j] = math.Abs(a - b)
		}
	}
	sol, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: medians at 1 and 4, cost 2+2 = 4.
	if sol.Cost != 4 {
		t.Fatalf("Exact cost = %v, want 4 (open %v)", sol.Cost, sol.Open)
	}
	if sol.Open[0] != 1 || sol.Open[1] != 4 {
		t.Fatalf("Exact open = %v, want [1 4]", sol.Open)
	}
}

func TestExactKEqualsN(t *testing.T) {
	in := lineInstance(4, 4)
	sol, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Fatalf("all-open cost = %v, want 0", sol.Cost)
	}
}

func TestLocalSearchMatchesExactOnLine(t *testing.T) {
	in := lineInstance(9, 3)
	ls, err := LocalSearch(in, Options{P: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Cost > ex.Cost+1e-9 {
		// Local search may land in a local optimum; but it must stay
		// within the guarantee.
		if ls.Cost > ApproximationRatio(1)*ex.Cost+1e-9 {
			t.Fatalf("LS cost %v violates 5×OPT = %v", ls.Cost, 5*ex.Cost)
		}
	}
}

func TestLocalSearchAssignmentConsistency(t *testing.T) {
	in := randomMetricInstance(20, 4, 3)
	sol, err := LocalSearch(in, Options{P: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Open) != 4 {
		t.Fatalf("open = %v, want 4 facilities", sol.Open)
	}
	openSet := map[int]bool{}
	for _, f := range sol.Open {
		openSet[f] = true
	}
	total := 0.0
	for ci, c := range in.Clients {
		f := sol.Assignment[ci]
		if !openSet[f] {
			t.Fatalf("client %d assigned to closed facility %d", c, f)
		}
		// Must be the nearest open facility.
		for _, g := range sol.Open {
			if in.Cost[c][g] < in.Cost[c][f]-1e-12 {
				t.Fatalf("client %d not assigned to nearest facility", c)
			}
		}
		total += in.Cost[c][f]
	}
	if math.Abs(total-sol.Cost) > 1e-9 {
		t.Fatalf("cost %v does not match assignment total %v", sol.Cost, total)
	}
}

// TestLocalSearchApproximationRatio validates the paper's headline claim:
// Alg. 5 with swap size p yields cost ≤ (3 + 2/p)·OPT on metric instances.
func TestLocalSearchApproximationRatio(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, p := range []int{1, 2} {
			in := randomMetricInstance(14, 3, seed)
			ls, err := LocalSearch(in, Options{P: p, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := Exact(in)
			if err != nil {
				t.Fatal(err)
			}
			bound := ApproximationRatio(p)*ex.Cost + 1e-9
			if ls.Cost > bound {
				t.Errorf("seed %d p=%d: LS %.4f > (3+2/%d)·OPT %.4f", seed, p, ls.Cost, p, bound)
			}
		}
	}
}

func TestLocalSearchP2NotWorseThanP1(t *testing.T) {
	worse := 0
	for seed := int64(0); seed < 8; seed++ {
		in := randomMetricInstance(16, 4, seed+100)
		p1, err := LocalSearch(in, Options{P: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := LocalSearch(in, Options{P: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if p2.Cost > p1.Cost+1e-9 {
			worse++
		}
	}
	// p=2 explores a superset of p=1 swaps from the same start; allow at
	// most occasional randomization noise.
	if worse > 2 {
		t.Errorf("p=2 was worse than p=1 in %d/8 runs", worse)
	}
}

func TestLocalSearchMaxSwapsCap(t *testing.T) {
	in := randomMetricInstance(30, 5, 7)
	sol, err := LocalSearch(in, Options{P: 1, Seed: 7, MaxSwaps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Swaps > 1 {
		t.Fatalf("swaps = %d, cap was 1", sol.Swaps)
	}
}

func TestLocalSearchDeterministicWithSeed(t *testing.T) {
	in := randomMetricInstance(15, 3, 9)
	a, err := LocalSearch(in, Options{P: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LocalSearch(in, Options{P: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("same seed, different cost: %v vs %v", a.Cost, b.Cost)
	}
}

func TestApproximationRatio(t *testing.T) {
	if ApproximationRatio(1) != 5 {
		t.Errorf("ratio(1) = %v, want 5", ApproximationRatio(1))
	}
	if ApproximationRatio(2) != 4 {
		t.Errorf("ratio(2) = %v, want 4", ApproximationRatio(2))
	}
	if ApproximationRatio(0) != 5 {
		t.Errorf("ratio(0) should clamp to p=1")
	}
	if r := ApproximationRatio(3); math.Abs(r-(3+2.0/3)) > 1e-12 {
		t.Errorf("ratio(3) = %v, want 3+2/3", r)
	}
}

func TestCombinations(t *testing.T) {
	c := combinations([]int{1, 2, 3}, 2)
	if len(c) != 3 {
		t.Fatalf("C(3,2) = %d, want 3", len(c))
	}
	c = combinations([]int{1, 2, 3, 4}, 1)
	if len(c) != 4 {
		t.Fatalf("C(4,1) = %d, want 4", len(c))
	}
	if got := combinations([]int{1}, 2); len(got) != 0 {
		t.Fatalf("C(1,2) = %d, want 0", len(got))
	}
}

// Property: local search cost is never below the exact optimum and never
// above the guarantee, over random metric instances.
func TestLocalSearchBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomMetricInstance(10, 2, seed)
		ls, err := LocalSearch(in, Options{P: 1, Seed: seed})
		if err != nil {
			return false
		}
		ex, err := Exact(in)
		if err != nil {
			return false
		}
		return ls.Cost >= ex.Cost-1e-9 && ls.Cost <= 5*ex.Cost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
