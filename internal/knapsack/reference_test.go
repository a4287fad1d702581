package knapsack

// This file keeps the Alg. 2 DP as it stood before the kept-bit backtrack:
// every improving cell copied its predecessor's subset and appended the new
// item. It is the oracle of TestScratchMatchesReference; do not "improve"
// this copy.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sheriff/internal/dcn"
)

// referenceSelectByBudget is the copy-per-improvement SelectByBudget,
// verbatim.
func referenceSelectByBudget(vms []*dcn.VM, budget float64) []*dcn.VM {
	if budget <= 0 {
		return nil
	}
	cands := make([]*dcn.VM, 0, len(vms))
	for _, vm := range vms {
		if !vm.DelaySensitive {
			cands = append(cands, vm)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	c := int(math.Floor(budget))
	if c <= 0 {
		return nil
	}
	// Integer sizes: round up so the budget is never exceeded.
	sizes := make([]int, len(cands))
	for i, vm := range cands {
		sizes[i] = int(math.Ceil(vm.Capacity))
		if sizes[i] <= 0 {
			sizes[i] = 1
		}
	}
	const inf = math.MaxFloat64
	// d[j]: minimal total value of a subset with total size exactly j.
	d := make([]float64, c+1)
	choice := make([][]int32, c+1) // chosen VM indices per cell
	for j := 1; j <= c; j++ {
		d[j] = inf
	}
	for i, vm := range cands {
		sz := sizes[i]
		for j := c; j >= sz; j-- {
			if d[j-sz] == inf {
				continue
			}
			if nv := d[j-sz] + vm.Value; nv < d[j] {
				d[j] = nv
				sel := make([]int32, len(choice[j-sz])+1)
				copy(sel, choice[j-sz])
				sel[len(sel)-1] = int32(i)
				choice[j] = sel
			}
		}
	}
	// Largest reachable size wins; d already holds the min value there.
	for j := c; j >= 1; j-- {
		if d[j] != inf {
			out := make([]*dcn.VM, len(choice[j]))
			for k, idx := range choice[j] {
				out[k] = cands[idx]
			}
			sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
			return out
		}
	}
	return nil
}

// randomInstance draws n VMs with unique shuffled IDs: fractional or whole
// capacities, Values drawn from a few levels so that ties are common, and
// some delay-sensitive VMs.
func randomInstance(rng *rand.Rand, n int) []*dcn.VM {
	ids := rng.Perm(4 * n)
	out := make([]*dcn.VM, n)
	for i := range out {
		capacity := float64(rng.Intn(12) + 1)
		if rng.Intn(2) == 0 {
			capacity = rng.Float64() * 12
		}
		value := float64(rng.Intn(4))
		if rng.Intn(3) == 0 {
			value = rng.Float64() * 10
		}
		out[i] = vm(ids[i], capacity, value, rng.Intn(5) == 0)
	}
	return out
}

// TestScratchMatchesReference holds the kept-bit backtrack to the oracle:
// the same VMs in the same order on random instances with fractional
// capacities, Value ties and delay-sensitive VMs, over budgets 0–60, with
// one Scratch carried through instances that shrink and grow (a stale kept
// bit or d cell from a larger instance would show as a different subset).
func TestScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(14)
		if trial%7 == 0 {
			n = 30 + rng.Intn(10) // a large one now and then, then small ones again
		}
		vms := randomInstance(rng, n)
		budget := float64(rng.Intn(61))
		if rng.Intn(2) == 0 {
			budget += rng.Float64()
		}
		want := referenceSelectByBudget(vms, budget)
		for _, got := range [][]*dcn.VM{s.SelectByBudget(vms, budget), SelectByBudget(vms, budget)} {
			if fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d (n %d, budget %v): selected %v, the copying DP selects %v",
					trial, n, budget, ids(got), ids(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d: position %d holds a different VM with the same ID", trial, k)
				}
			}
		}
	}
}

// TestScratchSteadyStateAllocs is the knapsack's allocation gate (CI
// "Allocation gate" step): once a Scratch has seen an instance, selecting
// on it again allocates nothing.
func TestScratchSteadyStateAllocs(t *testing.T) {
	vms := randomInstance(rand.New(rand.NewSource(5)), 24)
	var s Scratch
	if len(s.SelectByBudget(vms, 40)) == 0 {
		t.Fatal("instance selects nothing")
	}
	if allocs := testing.AllocsPerRun(50, func() { s.SelectByBudget(vms, 40) }); allocs != 0 {
		t.Errorf("a warm Scratch allocates %v times per selection, want 0", allocs)
	}
}
