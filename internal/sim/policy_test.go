package sim

import (
	"testing"

	"sheriff/internal/faults"
	"sheriff/internal/placement"
)

// TestRunPolicyChaosPlacesEverything is the end-to-end fail-queue
// guarantee: even with the bus dropping, duplicating and reordering
// messages, the retry rounds plus the final widened drain leave no VM
// homeless for every policy in the grid.
func TestRunPolicyChaosPlacesEverything(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Drop: 0.15, DupRate: 0.1, ReorderRate: 0.2, Jitter: 1}
	for _, kind := range placement.Kinds() {
		res, err := RunPolicy(PolicyConfig{
			Sim:         Config{Kind: FatTree, Size: 4, Seed: 5},
			Policy:      placement.PolicyOptions{Kind: kind, Seed: 5},
			Fault:       plan,
			FaultName:   "chaos",
			Distributed: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Unplaced != 0 {
			t.Errorf("%s: %d VMs left unplaced under chaos despite retries", kind, res.Unplaced)
		}
		if res.Migrations == 0 {
			t.Errorf("%s: chaos run migrated nothing", kind)
		}
	}
}

// TestRunPolicyDeterministic pins that the same PolicyConfig yields a
// bit-identical PolicyResult — the property that lets the ablation grid
// be regenerated instead of stored.
func TestRunPolicyDeterministic(t *testing.T) {
	run := func(distributed bool) *PolicyResult {
		res, err := RunPolicy(PolicyConfig{
			Sim:         Config{Kind: BCube, Size: 4, Seed: 13},
			Policy:      placement.PolicyOptions{Kind: placement.BestFit, Seed: 13},
			Distributed: distributed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, distributed := range []bool{false, true} {
		a, b := run(distributed), run(distributed)
		if *a != *b {
			t.Errorf("distributed=%v: identical configs produced different results\n a: %+v\n b: %+v",
				distributed, *a, *b)
		}
	}
}

// TestRunPolicySequentialRetries checks the sequential path keeps the
// leftover guarantee too: the widened final pass settles whatever the
// per-round regions could not take.
func TestRunPolicySequentialRetries(t *testing.T) {
	res, err := RunPolicy(PolicyConfig{
		Sim:    Config{Kind: FatTree, Size: 4, Seed: 3},
		Policy: placement.PolicyOptions{Kind: placement.WorstFit, Seed: 3},
		Rounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unplaced != 0 {
		t.Errorf("sequential run left %d VMs unplaced", res.Unplaced)
	}
	if res.FinalStdDev < 0 || res.InitialStdDev <= 0 {
		t.Errorf("implausible stddev pair: %f -> %f", res.InitialStdDev, res.FinalStdDev)
	}
}
