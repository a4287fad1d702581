// Package centralized implements the global (centralized) optimal manager
// that the paper compares Sheriff against in Figs. 11–14: a single
// controller that sees every host in the DCN and solves the same
// VM-to-destination matching over the global candidate pool. Its search
// space is |F| × (all hosts), against Sheriff's |F| × (regional hosts);
// its migration cost is a lower bound on any regional scheme using the
// same matching machinery.
//
// It also exposes the Sec. V.A k-median view: choosing the m destination
// ToRs that minimize total rack-pair connection cost, solved exactly for
// small instances and by Local Search otherwise.
package centralized

import (
	"fmt"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/kmedian"
	"sheriff/internal/migrate"
	"sheriff/internal/pool"
)

// Manager is the centralized controller.
type Manager struct {
	cluster *dcn.Cluster
	model   *cost.Model
}

// New builds a centralized manager over the cluster.
func New(c *dcn.Cluster, m *cost.Model) *Manager {
	return &Manager{cluster: c, model: m}
}

// Migrate places every candidate VM using the global host pool. The
// returned result's SearchSpace reflects the full |F|×|hosts| scan.
func (m *Manager) Migrate(f []*dcn.VM) (*migrate.MigrationResult, error) {
	return migrate.VMMigration(m.cluster, m.model, f, m.cluster.Hosts())
}

// MigrateOpts is Migrate with the full options: the centralized baseline
// runs under the same Eqn. (6) constraint, admission hook and tracing as
// the regional scheme, keeping the Figs. 11–14 comparison
// apples-to-apples.
func (m *Manager) MigrateOpts(f []*dcn.VM, o migrate.MigrationOptions) (*migrate.MigrationResult, error) {
	return migrate.Migrate(m.cluster, m.model, f, m.cluster.Hosts(), o)
}

// PlanOptions tunes PlanDestinationsOpts.
type PlanOptions struct {
	K    int   // destination ToR count (required, 1..racks)
	P    int   // Alg. 5 swap size; default 1
	Seed int64 // local-search start seed
	// Exact switches to the branch-and-bound optimal solver (the Figs.
	// 11/13 "global optimal" reference). Feasible far beyond the seed's
	// enumerator, but still exponential in the worst case.
	Exact bool
	// MaxSwaps caps the local search's improving swaps; 0 = default.
	MaxSwaps int
	// Pool bounds the parallel swap scan; nil = the shared pool.
	Pool *pool.Pool
}

// PlanDestinations solves the Sec. V.A k-median reduction: given the
// racks that raised alerts (clients C) and all racks as facilities F,
// pick k destination ToRs minimizing total collapsed pair cost
// G(v_i, v_p) + C_r. exact=true computes the optimum by branch-and-bound;
// otherwise Alg. 5 Local Search with swap size p runs.
func (m *Manager) PlanDestinations(sourceRacks []int, k, p int, exact bool, seed int64) (*kmedian.Solution, error) {
	return m.PlanDestinationsOpts(sourceRacks, PlanOptions{K: k, P: p, Exact: exact, Seed: seed})
}

// PlanDestinationsOpts is PlanDestinations with the full option set of the
// incremental planning engine threaded through.
func (m *Manager) PlanDestinationsOpts(sourceRacks []int, o PlanOptions) (*kmedian.Solution, error) {
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
	return kmedian.LocalSearch(inst, kmedian.Options{
		P: o.P, Seed: o.Seed, MaxSwaps: o.MaxSwaps, Pool: o.Pool,
	})
}
