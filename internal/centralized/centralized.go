// Package centralized implements the Sec. V.A k-median view of the global
// (centralized) manager that the paper compares Sheriff against: choosing
// the m destination ToRs that minimize total rack-pair connection cost,
// solved exactly by branch-and-bound or by Alg. 5 Local Search. The
// global arm of the Figs. 11–14 migration comparison is not here: it is
// one migrate.Migrate call over every host, which sim.Compare makes
// itself.
package centralized

import (
	"fmt"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/kmedian"
)

// Manager is the centralized planner: it sees every rack of the cluster.
type Manager struct {
	cluster *dcn.Cluster
	model   *cost.Model
}

// New builds a centralized manager over the cluster.
func New(c *dcn.Cluster, m *cost.Model) *Manager {
	return &Manager{cluster: c, model: m}
}

// PlanOptions tunes PlanDestinations.
type PlanOptions struct {
	K    int   // destination ToR count (required, 1..racks)
	P    int   // Alg. 5 swap size; default 1
	Seed int64 // local-search start seed
	// Exact switches to the branch-and-bound optimal solver (the Figs.
	// 11/13 "global optimal" reference). Feasible far beyond the seed's
	// enumerator, but still exponential in the worst case.
	Exact bool
}

// PlanDestinations solves the Sec. V.A k-median reduction: given the
// racks that raised alerts (clients C) and all racks as facilities F,
// pick o.K destination ToRs minimizing total collapsed pair cost
// G(v_i, v_p) + C_r. o.Exact computes the optimum by branch-and-bound;
// otherwise Alg. 5 Local Search with swap size o.P runs from o.Seed.
func (m *Manager) PlanDestinations(sourceRacks []int, o PlanOptions) (*kmedian.Solution, error) {
	racks := m.cluster.Racks
	if o.K < 1 || o.K > len(racks) {
		return nil, fmt.Errorf("centralized: k = %d out of range [1, %d]", o.K, len(racks))
	}
	facilities := make([]int, len(racks))
	for i := range racks {
		facilities[i] = i
	}
	inst := &kmedian.Instance{
		Cost:       m.model.RackCostMatrix(),
		Clients:    sourceRacks,
		Facilities: facilities,
		K:          o.K,
	}
	if o.Exact {
		return kmedian.Exact(inst)
	}
	return kmedian.LocalSearch(inst, kmedian.Options{P: o.P, Seed: o.Seed})
}
