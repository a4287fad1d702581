package migrate

// This file is a frozen Alg. 3 implementation, kept verbatim as the
// bit-exactness oracle for Migrate: TestMigrateMatchesReference asserts
// that Migrate produces migration sets, costs, and search-space counts
// identical to this code on every seed. Fix behavior bugs in migrate.go AND
// here, or the equivalence test will tell on you; do not "improve" this
// copy.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/matching"
	"sheriff/internal/obs"
)

// referenceVMMigration is the pre-policy VMMigrationWith, byte for byte.
func referenceVMMigration(c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*Tally, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	res := &Tally{}
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
// (VM, host) pair on its own — one Eqn. (1) evaluation per host — but for
// taking the core's fields as arguments. It is the oracle of
// TestMatchPricesRacksOnce.
func refHostPairCost(c *dcn.Cluster, m *cost.Model, vm *dcn.VM, h *dcn.Host) (score, base float64) {
	if h == vm.Host() {
		return matching.Forbidden, 0 // must actually move
	}
	if !(h.Free() >= vm.Capacity) {
		return matching.Forbidden, 0
	}
	if _, conflict := h.Conflict(c.Deps, vm.ID); conflict {
		return matching.Forbidden, 0
	}
	mc, err := m.Migration(vm, h)
	if err != nil {
		return matching.Forbidden, 0
	}
	return mc, mc
}

// alertEveryNth marks every nth VM (by ID order) as alerted and returns
// them — a deterministic stand-in for the predictor, mirrored exactly
// across identically populated clusters.
func alertEveryNth(c *dcn.Cluster, n int) []*dcn.VM {
	vms := c.VMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	var out []*dcn.VM
	for i, vm := range vms {
		if i%n == 0 {
			vm.Alert = 0.9 + 0.01*float64(i%7)
			out = append(out, vm)
		}
	}
	return out
}

// migResultSignature flattens a result into a comparable string: exact
// migration sequence (VM, destination, cost) plus the counters.
func migResultSignature(res *Tally) string {
	var b strings.Builder
	for _, mg := range res.Migrations {
		fmt.Fprintf(&b, "%d->%d@%.9f;", mg.VM.ID, mg.To.ID, mg.Cost)
	}
	fmt.Fprintf(&b, "|cost=%.9f|space=%d|rej=%d|unp=",
		res.TotalCost, res.SearchSpace, res.Rejected)
	for _, vm := range res.Unplaced {
		fmt.Fprintf(&b, "%d,", vm.ID)
	}
	return b.String()
}

// decide is the Alg. 4 decision under these options, as the frozen oracle
// asks for it; the product goes through core.grant, which shares the
// decision and adds the move.
func (o *MigrationOptions) decide(vm *dcn.VM, dst *dcn.Host) (ok bool, cause string) {
	k := core{admit: o.Policy}
	return k.admits(vm, dst)
}

// TestMigrateMatchesReference pins Migrate to the frozen implementation
// above: same migrations in the same order with the same costs, same
// totals, same search space, same unplaced set — on every seed.
func TestMigrateMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11, 42} {
		for _, forbid := range []bool{false, true} {
			buildOne := func() (*fixture, []*dcn.VM) {
				fx := newFixture(t, 4, 2)
				fx.cluster.Populate(dcn.PopulateOptions{
					VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 30,
					DependencyProb: 0.2, Seed: seed,
				})
				return fx, alertEveryNth(fx.cluster, 5)
			}
			fxA, fA := buildOne()
			fxB, fB := buildOne()
			o := MigrationOptions{ForbidSameRack: forbid, Shim: ShimUnknown}
			got, err := Migrate(fxA.cluster, fxA.model, fA, fxA.cluster.Hosts(), o)
			if err != nil {
				t.Fatalf("seed %d forbid %v: Migrate: %v", seed, forbid, err)
			}
			want, err := referenceVMMigration(fxB.cluster, fxB.model, fB, fxB.cluster.Hosts(), o)
			if err != nil {
				t.Fatalf("seed %d forbid %v: reference: %v", seed, forbid, err)
			}
			if gs, ws := migResultSignature(got), migResultSignature(want); gs != ws {
				t.Errorf("seed %d forbid %v: Migrate diverged from the reference\n got: %s\nwant: %s",
					seed, forbid, gs, ws)
			}
		}
	}
}
