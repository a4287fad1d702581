package kmedian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sheriff/internal/pool"
)

// These tests pin the correctness contract of the incremental engine: the
// delta-evaluated trial costs, the in-place cache updates, and the
// branch-and-bound Exact must reproduce the seed's cold-evaluate numbers
// bit-for-bit (==, not within an epsilon).

func TestUnrankCombMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 1}, {4, 1}, {4, 2}, {5, 3}, {7, 4}, {9, 2}} {
		items := make([]int, tc.n)
		for i := range items {
			items[i] = 10 + i // arbitrary, non-identity values
		}
		want := combinations(items, tc.k)
		if int64(len(want)) != binom(tc.n, tc.k) {
			t.Fatalf("C(%d,%d): enumerated %d, binom %d", tc.n, tc.k, len(want), binom(tc.n, tc.k))
		}
		got := make([]int, tc.k)
		for r := range want {
			unrankComb(items, int64(r), got)
			for i := range got {
				if got[i] != want[r][i] {
					t.Fatalf("C(%d,%d) rank %d: unranked %v, want %v", tc.n, tc.k, r, got, want[r])
				}
			}
		}
	}
}

func TestBinomSaturates(t *testing.T) {
	if b := binom(200, 100); b != math.MaxInt64 {
		t.Fatalf("binom(200,100) = %d, want saturation", b)
	}
	if b := binom(5, 7); b != 0 {
		t.Fatalf("binom(5,7) = %d, want 0", b)
	}
	if b := binom(52, 5); b != 2598960 {
		t.Fatalf("binom(52,5) = %d, want 2598960", b)
	}
}

// trialOpen builds the open set that results from applying (outs → ins).
func trialOpen(open, outs, ins []int) []int {
	trial := append([]int(nil), open...)
	replaceAll(trial, outs, ins)
	return trial
}

// TestTrialSingleBitEqualColdEvaluate: every 1-swap trial cost from the
// cached state equals a cold evaluate of the swapped open set, bit-exact.
func TestTrialSingleBitEqualColdEvaluate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomMetricInstance(12+rng.Intn(10), 2+rng.Intn(4), seed)
		open := randomOpen(in, rng)
		st := newState(in, open)
		closed := closedOf(in, st)
		for _, out := range st.open {
			for _, f := range closed {
				got := st.trialSingle(out, f)
				_, want := evaluate(in, trialOpen(st.open, []int{out}, []int{f}))
				if got != want {
					t.Logf("seed %d: trialSingle(%d,%d) = %v, cold = %v", seed, out, f, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTrialMultiBitEqualColdEvaluate: the same bit-equality for p ∈ {2, 3}
// swap sets, including the rare path where a client loses both of its
// cached facilities.
func TestTrialMultiBitEqualColdEvaluate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomMetricInstance(14, 4+rng.Intn(3), seed)
		open := randomOpen(in, rng)
		st := newState(in, open)
		closed := closedOf(in, st)
		for _, size := range []int{2, 3} {
			outSets := combinations(st.open, size)
			inSets := combinations(closed, size)
			for _, outs := range outSets {
				for _, ins := range inSets {
					got := st.trialMulti(outs, ins)
					_, want := evaluate(in, trialOpen(st.open, outs, ins))
					if got != want {
						t.Logf("seed %d: trialMulti(%v,%v) = %v, cold = %v", seed, outs, ins, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestApplyBitEqualColdEvaluate: after a random sequence of applied swaps
// the cached distances, cost, and nearest/second-nearest structure all
// match a state rebuilt from scratch — no drift accumulates.
func TestApplyBitEqualColdEvaluate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomMetricInstance(16, 4, seed)
		open := randomOpen(in, rng)
		st := newState(in, open)
		closed := closedOf(in, st)
		for step := 0; step < 12; step++ {
			size := 1 + rng.Intn(2)
			outs := sample(rng, st.open, size)
			ins := sample(rng, closed, size)
			st.apply(outs, ins)
			replaceAll(closed, ins, outs)

			_, coldCost := evaluate(in, st.open)
			if st.cost != coldCost {
				t.Logf("seed %d step %d: cost %v, cold %v", seed, step, st.cost, coldCost)
				return false
			}
			fresh := newState(in, st.open)
			for ci := range in.Clients {
				if st.d1[ci] != fresh.d1[ci] || st.d2[ci] != fresh.d2[ci] {
					t.Logf("seed %d step %d client %d: d1/d2 (%v,%v) vs fresh (%v,%v)",
						seed, step, ci, st.d1[ci], st.d2[ci], fresh.d1[ci], fresh.d2[ci])
					return false
				}
				// Facility identity may differ only under exact distance
				// ties; the served distances must agree regardless.
				c := in.Clients[ci]
				if in.Cost[c][st.n1[ci]] != st.d1[ci] || !st.isOpen[st.n1[ci]] {
					t.Logf("seed %d step %d client %d: n1 %d inconsistent", seed, step, ci, st.n1[ci])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestExactBitEqualEnumerator: branch-and-bound returns exactly the
// enumerated optimum's cost on random metric instances.
func TestExactBitEqualEnumerator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomMetricInstance(8+rng.Intn(7), 2+rng.Intn(3), seed)
		bnb, err := Exact(in)
		if err != nil {
			return false
		}
		enum, err := referenceExact(in)
		if err != nil {
			return false
		}
		if bnb.Cost != enum.Cost {
			t.Logf("seed %d: bnb %v, enum %v", seed, bnb.Cost, enum.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestExactMatchesEnumeratorOnLine covers tie-heavy integer instances,
// where distinct optima share a cost.
func TestExactMatchesEnumeratorOnLine(t *testing.T) {
	for n := 4; n <= 10; n++ {
		for k := 1; k <= 3 && k <= n; k++ {
			in := lineInstance(n, k)
			bnb, err := Exact(in)
			if err != nil {
				t.Fatal(err)
			}
			enum, err := referenceExact(in)
			if err != nil {
				t.Fatal(err)
			}
			if bnb.Cost != enum.Cost {
				t.Fatalf("line n=%d k=%d: bnb %v, enum %v", n, k, bnb.Cost, enum.Cost)
			}
		}
	}
}

// TestLocalSearchNotWorseThanReference: from the same seed (hence the same
// start), the incremental engine must end within the guarantee and no
// worse than what the seed implementation converged to — both are local
// optima of the same neighborhood, just reached in different scan orders.
func TestLocalSearchAndReferenceBothLocalOptimal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := randomMetricInstance(18, 4, seed)
		fast, err := LocalSearch(in, Options{P: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := referenceLocalSearch(in, Options{P: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		bound := ApproximationRatio(1)*ex.Cost + 1e-9
		if fast.Cost > bound || naive.Cost > bound {
			t.Fatalf("seed %d: fast %v / naive %v exceed bound %v", seed, fast.Cost, naive.Cost, bound)
		}
		// The fast engine's end state must itself admit no improving 1-swap.
		st := newState(in, fast.Open)
		if sw := st.findSwap(closedOf(in, st), 1, 0, pool.New(1), 0); sw != nil {
			t.Fatalf("seed %d: fast result not 1-swap optimal (found %v→%v)", seed, sw.outs, sw.ins)
		}
	}
}

// TestParallelScanDeterministic: the chosen swap sequence — and therefore
// the whole solution — is identical for any worker count and chunk size.
func TestParallelScanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomMetricInstance(40, 6, seed)
		var base *Solution
		for _, cfg := range []struct{ workers, chunk int }{
			{1, 0}, {2, 0}, {4, 3}, {8, 1}, {3, 7},
		} {
			sol, err := LocalSearch(in, Options{
				P: 2, Seed: seed, Pool: pool.New(cfg.workers), ScanChunk: cfg.chunk,
			})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = sol
				continue
			}
			if sol.Cost != base.Cost || sol.Swaps != base.Swaps {
				t.Fatalf("seed %d workers=%d chunk=%d: cost/swaps %v/%d, want %v/%d",
					seed, cfg.workers, cfg.chunk, sol.Cost, sol.Swaps, base.Cost, base.Swaps)
			}
			for i := range base.Open {
				if sol.Open[i] != base.Open[i] {
					t.Fatalf("seed %d workers=%d chunk=%d: open %v, want %v",
						seed, cfg.workers, cfg.chunk, sol.Open, base.Open)
				}
			}
			for i := range base.Assignment {
				if sol.Assignment[i] != base.Assignment[i] {
					t.Fatalf("seed %d workers=%d chunk=%d: assignment diverges at client %d",
						seed, cfg.workers, cfg.chunk, i)
				}
			}
		}
	}
}

// TestConcurrentLocalSearchSharedPool drives several searches through one
// pool at once; under -race this asserts the scan's reads of the shared
// caches and the per-chunk result slots are properly synchronized.
func TestConcurrentLocalSearchSharedPool(t *testing.T) {
	pl := pool.New(4)
	in := randomMetricInstance(30, 5, 42)
	want, err := LocalSearch(in, Options{P: 1, Seed: 42, Pool: pl, ScanChunk: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Solution, 8)
	for g := 0; g < 8; g++ {
		go func() {
			sol, err := LocalSearch(in, Options{P: 1, Seed: 42, Pool: pl, ScanChunk: 2})
			if err != nil {
				done <- nil
				return
			}
			done <- sol
		}()
	}
	for g := 0; g < 8; g++ {
		sol := <-done
		if sol == nil {
			t.Fatal("concurrent LocalSearch failed")
		}
		if sol.Cost != want.Cost {
			t.Fatalf("concurrent run diverged: %v vs %v", sol.Cost, want.Cost)
		}
	}
}

// randomOpen picks a random feasible K-subset the same way LocalSearch
// seeds its start.
func randomOpen(in *Instance, rng *rand.Rand) []int {
	perm := rng.Perm(len(in.Facilities))
	open := make([]int, in.K)
	for i := range open {
		open[i] = in.Facilities[perm[i]]
	}
	return open
}

func closedOf(in *Instance, st *state) []int {
	var closed []int
	for _, f := range in.Facilities {
		if !st.isOpen[f] {
			closed = append(closed, f)
		}
	}
	return closed
}

// sample picks `size` distinct elements of s in order of a random perm.
func sample(rng *rand.Rand, s []int, size int) []int {
	perm := rng.Perm(len(s))
	out := make([]int, size)
	for i := 0; i < size; i++ {
		out[i] = s[perm[i]]
	}
	return out
}
