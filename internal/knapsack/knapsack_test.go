package knapsack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sheriff/internal/dcn"
)

func vm(id int, capacity, value float64, ds bool) *dcn.VM {
	return &dcn.VM{ID: id, Capacity: capacity, Value: value, DelaySensitive: ds}
}

func totalCapacity(vms []*dcn.VM) float64 {
	s := 0.0
	for _, v := range vms {
		s += v.Capacity
	}
	return s
}

func totalValue(vms []*dcn.VM) float64 {
	s := 0.0
	for _, v := range vms {
		s += v.Value
	}
	return s
}

func TestSelectByBudgetBasic(t *testing.T) {
	vms := []*dcn.VM{
		vm(0, 5, 3, false),
		vm(1, 5, 1, false),
		vm(2, 5, 2, false),
	}
	// Budget 10: two VMs fit; the lowest-value pair is {1, 2}.
	sel := SelectByBudget(vms, 10)
	if len(sel) != 2 {
		t.Fatalf("selected %d VMs, want 2", len(sel))
	}
	if totalValue(sel) != 3 {
		t.Fatalf("total value = %v, want 3 (VMs 1 and 2)", totalValue(sel))
	}
}

func TestSelectByBudgetPrefersLargerSize(t *testing.T) {
	// One big cheap VM vs one small cheap VM: budget allows either alone;
	// the DP must prefer filling more capacity.
	vms := []*dcn.VM{
		vm(0, 9, 5, false),
		vm(1, 2, 1, false),
	}
	sel := SelectByBudget(vms, 9)
	if len(sel) != 1 || sel[0].ID != 0 {
		t.Fatalf("selected %v, want the size-9 VM", ids(sel))
	}
}

func TestSelectByBudgetEliminatesDelaySensitive(t *testing.T) {
	vms := []*dcn.VM{
		vm(0, 5, 1, true), // delay-sensitive: excluded
		vm(1, 5, 9, false),
	}
	sel := SelectByBudget(vms, 10)
	if len(sel) != 1 || sel[0].ID != 1 {
		t.Fatalf("selected %v, want only VM 1", ids(sel))
	}
}

func TestSelectByBudgetNeverExceedsBudget(t *testing.T) {
	vms := []*dcn.VM{
		vm(0, 7.4, 1, false),
		vm(1, 3.9, 1, false),
		vm(2, 2.2, 1, false),
	}
	sel := SelectByBudget(vms, 10)
	if totalCapacity(sel) > 10 {
		t.Fatalf("selection capacity %v exceeds budget 10", totalCapacity(sel))
	}
}

func TestSelectByBudgetEdgeCases(t *testing.T) {
	if SelectByBudget(nil, 10) != nil {
		t.Error("empty input should return nil")
	}
	if SelectByBudget([]*dcn.VM{vm(0, 5, 1, false)}, 0) != nil {
		t.Error("zero budget should return nil")
	}
	if SelectByBudget([]*dcn.VM{vm(0, 5, 1, false)}, -3) != nil {
		t.Error("negative budget should return nil")
	}
	if got := SelectByBudget([]*dcn.VM{vm(0, 50, 1, false)}, 10); got != nil {
		t.Errorf("oversized VM should not be selected: %v", ids(got))
	}
}

func TestSelectByBudgetTinyCapacityRoundsUp(t *testing.T) {
	sel := SelectByBudget([]*dcn.VM{vm(0, 0.2, 1, false)}, 1)
	if len(sel) != 1 {
		t.Fatal("sub-unit VM should round up to 1 unit and fit budget 1")
	}
}

// bruteBest finds, by exhaustive subset search, the maximal total integer
// size within budget, and among those the minimal value.
func bruteBest(vms []*dcn.VM, budget int) (bestSize int, bestValue float64) {
	n := len(vms)
	bestValue = math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		size := 0
		value := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += int(math.Ceil(vms[i].Capacity))
				value += vms[i].Value
			}
		}
		if size > budget {
			continue
		}
		if size > bestSize || (size == bestSize && value < bestValue) {
			bestSize, bestValue = size, value
		}
	}
	return bestSize, bestValue
}

// Property: the DP matches exhaustive search on small instances.
func TestSelectByBudgetOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		vms := make([]*dcn.VM, n)
		for i := range vms {
			vms[i] = vm(i, float64(rng.Intn(9)+1), float64(rng.Intn(10)+1), false)
		}
		budget := rng.Intn(20) + 1
		sel := SelectByBudget(vms, float64(budget))
		gotSize := 0
		for _, v := range sel {
			gotSize += int(math.Ceil(v.Capacity))
		}
		wantSize, wantValue := bruteBest(vms, budget)
		if gotSize != wantSize {
			return false
		}
		if wantSize == 0 {
			return len(sel) == 0
		}
		return math.Abs(totalValue(sel)-wantValue) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func ids(vms []*dcn.VM) []int {
	out := make([]int, len(vms))
	for i, v := range vms {
		out[i] = v.ID
	}
	return out
}
