package migrate

// This file is the frozen pre-policy Alg. 3 implementation, kept verbatim
// as the bit-exactness oracle for the policy-carrying Migrate entry point:
// TestMigrateMatchesReference asserts that Migrate with default options
// (no placement policy, no preemption, no retry queue) produces migration
// sets, costs, and search-space counts identical to this code on every
// seed. Fix behavior bugs in migrate.go AND here, or the equivalence test
// will tell on you; do not "improve" this copy.

import (
	"fmt"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/matching"
	"sheriff/internal/obs"
	"sheriff/internal/placement"
)

// referenceVMMigration is the pre-policy VMMigrationWith, byte for byte.
func referenceVMMigration(c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*MigrationResult, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	res := &MigrationResult{}
	rec := o.Recorder
	remaining := append([]*dcn.VM(nil), f...)
	// Destinations that rejected a VM are excluded from its later rounds
	// ("v_i should recalculate possible migration destinations"). The
	// exclusion set only grows, so the loop terminates.
	excluded := make(map[int]map[int]bool)

	round := 0
	for len(remaining) > 0 {
		round++
		costs := make([][]float64, len(remaining))
		feasible := false
		for i, vm := range remaining {
			costs[i] = make([]float64, len(candidates))
			for j, h := range candidates {
				if excluded[vm.ID][j] {
					costs[i][j] = matching.Forbidden
					continue
				}
				if o.ForbidSameRack && vm.Host() != nil && h.Rack() == vm.Host().Rack() {
					costs[i][j] = matching.Forbidden
					continue
				}
				costs[i][j] = refPairCost(c, m, vm, h)
				if costs[i][j] != matching.Forbidden {
					feasible = true
				}
			}
		}
		res.SearchSpace += len(remaining) * len(candidates)
		if !feasible {
			res.Unplaced = append(res.Unplaced, remaining...)
			break
		}
		sol, err := matching.Solve(costs)
		if err != nil {
			return nil, fmt.Errorf("migrate: matching: %w", err)
		}
		exclude := func(vmID, j int) {
			if excluded[vmID] == nil {
				excluded[vmID] = make(map[int]bool)
			}
			excluded[vmID][j] = true
		}
		var next []*dcn.VM
		anyMatched := false
		for i, vm := range remaining {
			j := sol.Assign[i]
			if j < 0 {
				next = append(next, vm)
				continue
			}
			anyMatched = true
			dst := candidates[j]
			moveCost := costs[i][j]
			rec.Record(obs.Event{Kind: obs.KindRequest, Round: round, Shim: o.Shim, VM: vm.ID, Host: dst.ID, Value: moveCost})
			// Alg. 4 REQUEST: the destination's delegation node re-checks
			// capacity (FCFS) and replies ACK or REJECT.
			ok, cause := o.decide(vm, dst)
			if ok {
				from := vm.Host()
				if err := c.Move(vm, dst); err != nil {
					// The handshake said yes but placement failed (e.g. a
					// dependency raced in): treat as a rejection.
					ok, cause = false, "race"
				} else {
					res.Migrations = append(res.Migrations, Migration{VM: vm, From: from, To: dst, Cost: moveCost})
					res.TotalCost += moveCost
					rec.Record(obs.Event{Kind: obs.KindAck, Round: round, Shim: o.Shim, VM: vm.ID, Host: dst.ID, Value: moveCost})
				}
			}
			if !ok {
				res.Rejected++
				exclude(vm.ID, j)
				next = append(next, vm)
				if rec.Enabled() {
					rec.Record(obs.Event{Kind: obs.KindReject, Round: round, Shim: o.Shim, VM: vm.ID, Host: dst.ID,
						Value: moveCost, Attrs: map[string]string{"cause": cause}})
				}
			}
		}
		if !anyMatched {
			res.Unplaced = append(res.Unplaced, next...)
			break
		}
		remaining = next
	}
	if rec.Enabled() {
		for _, vm := range res.Unplaced {
			rec.Record(obs.Event{Kind: obs.KindUnplaced, Round: round, Shim: o.Shim, VM: vm.ID, Host: ShimUnknown})
		}
	}
	return res, nil
}

// refPairCost is the pre-policy pairCost, byte for byte.
func refPairCost(c *dcn.Cluster, m *cost.Model, vm *dcn.VM, h *dcn.Host) float64 {
	if h == vm.Host() {
		return matching.Forbidden // must actually move
	}
	if h.Free() < vm.Capacity {
		return matching.Forbidden
	}
	for _, resident := range h.VMs() {
		if c.Deps.Dependent(vm.ID, resident.ID) {
			return matching.Forbidden
		}
	}
	mc, err := m.Migration(vm, h)
	if err != nil {
		return matching.Forbidden
	}
	return mc
}

// refHostPairCost is core.pairCost as it stood while Alg. 3 priced every
// (VM, host) pair on its own — one Eqn. (1) evaluation per host — verbatim
// but for taking the core's fields as arguments. It is the oracle of
// TestMatchPricesRacksOnce.
func refHostPairCost(c *dcn.Cluster, m *cost.Model, pol placement.Policy, vm *dcn.VM, h *dcn.Host) (score, base float64) {
	if h == vm.Host() {
		return matching.Forbidden, 0 // must actually move
	}
	if !pol.Feasible(vm.Capacity, h) {
		return matching.Forbidden, 0
	}
	if _, conflict := h.Conflict(c.Deps, vm.ID); conflict {
		return matching.Forbidden, 0
	}
	if vm.Host() == nil {
		base = m.Params().Cr
	} else {
		mc, err := m.Migration(vm, h)
		if err != nil {
			return matching.Forbidden, 0
		}
		base = mc
	}
	return pol.Score(vm.Capacity, h, base), base
}
