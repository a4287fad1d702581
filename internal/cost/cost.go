// Package cost implements the VM migration cost function of the paper's
// Sec. III.C (Eqn. 1):
//
//	Cost(v_i, v_p) = C_r + C_d·D(e)·χ_ip + Σ_{e ∈ P(v_i,v_p)} (δ·T(e) + η·P(e))
//
// where C_r is the fixed computing cost of the six-stage pre-copy live
// migration (initialization, reservation, commitment, activation — Fig. 2;
// downtime ≈ 60 ms is ignored as the paper does), T(e) = size/B(e) is the
// transmission time, P(e) = B(e)/C(e) the bandwidth utilization rate, and
// the dependency term charges C_d per unit of distance change between the
// VM and its dependent peers in G_d.
//
// Following Sec. V.A.2, transmission cost is collapsed from a path
// function g(v_i, v_p, e_ip) into a pair function G(v_i, v_p) by running
// Floyd–Warshall with the per-edge transmission cost, so the cost between
// two racks never depends on which path is taken: the cheapest one is
// always used.
package cost

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// Params holds the constants of Eqn. (1). The paper's simulation settings
// (Sec. VI.B) are C_r = 100, δ = η = 1, C_d = 1.
type Params struct {
	Cr             float64 // computing cost of one live migration
	Cd             float64 // unit dependency cost per distance in G_d
	Delta          float64 // δ: weight of transmission time T(e)
	Eta            float64 // η: weight of utilization rate P(e)
	BandwidthFloor float64 // B_t: minimum usable available bandwidth
	RefSize        float64 // reference VM size for the pair-cost table
}

// PaperParams returns the simulation constants of Sec. VI.B.
func PaperParams() Params {
	return Params{Cr: 100, Cd: 1, Delta: 1, Eta: 1, BandwidthFloor: 0, RefSize: 10}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Cr < 0 || p.Cd < 0 || p.Delta < 0 || p.Eta < 0 {
		return fmt.Errorf("cost: negative parameter in %+v", p)
	}
	if p.RefSize <= 0 {
		return fmt.Errorf("cost: RefSize must be > 0, got %v", p.RefSize)
	}
	return nil
}

// ErrBandwidthBelowFloor is returned when every path to the destination
// crosses a link with B(e) < B_t (the constraint "B(e) must be greater
// than a threshold value B_t").
var ErrBandwidthBelowFloor = errors.New("cost: no path with bandwidth above threshold")

// Model evaluates migration costs over one cluster. Construct with New;
// call Refresh (or RefreshSources) after changing link bandwidths.
//
// Queries may run from several goroutines at once, and a row they find
// stale is swept once; Refresh and RefreshSources must not run
// concurrently with queries or each other.
type Model struct {
	params  Params
	cluster *dcn.Cluster

	// trans holds Σ (δT+ηP) along the cheapest path from every rack. Its
	// weight vector is refilled by every refresh; its rows are swept on
	// demand: swept[r] is the weight generation row r was last swept at,
	// and a row is current iff that equals gen. mu serializes the sweeps
	// queries trigger; the stamp is the lock-free fast path.
	trans *topology.MultiSource
	swept []atomic.Uint64
	gen   uint64
	mu    sync.Mutex
	ready atomic.Bool // tables built (false until a deferred model's first use)

	prepared, onDemand atomic.Uint64 // rows swept by refreshes / by queries

	// dist is Σ D(e) between racks, row-major by trans row. Distance does
	// not depend on bandwidth, so it is swept (through trans's tables, before
	// they take the transmission metric) only when the wiring changes, and
	// only the rack × rack block anyone reads is kept.
	dist []float64

	transCost topology.EdgeCost // per-edge δT+ηP, built once from params
	structVer uint64            // Graph.StructVersion behind trans's rows and dist
	rows      []int             // RefreshSources scratch
	one       [1]int            // on-demand sweep scratch (under mu)
}

// New builds a cost model, computing rack-sourced shortest-path tables.
func New(c *dcn.Cluster, p Params) (*Model, error) {
	m, err := NewDeferred(c, p)
	if err != nil {
		return nil, err
	}
	m.Refresh()
	return m, nil
}

// NewDeferred builds a cost model without computing the rack-sourced
// shortest-path tables: construction is O(1) instead of |racks| Dijkstra
// sweeps over dense per-source tables. The tables are built by the first
// refresh — which the runtime's management phase already issues before any
// shim consults the model — or lazily by the first cost query. On a
// 5,000-rack fabric the eager tables cost hundreds of MB and tens of
// seconds; a scale run that never raises an alert should pay neither.
func NewDeferred(c *dcn.Cluster, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{params: p, cluster: c}
	m.transCost = func(e topology.Edge) float64 {
		if e.Bandwidth <= 0 || e.Bandwidth < p.BandwidthFloor {
			return topology.Inf
		}
		t := p.RefSize / e.Bandwidth // T(e) for the reference size
		u := e.Bandwidth / e.Capacity
		return p.Delta*t + p.Eta*u
	}
	return m, nil
}

// ensure builds the tables of a deferred model queried before its first
// refresh.
func (m *Model) ensure() {
	if m.ready.Load() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ready.Load() {
		m.RefreshSources(nil)
	}
}

// Refresh recomputes the shortest-path tables from current link state.
// Only rack nodes are sources — Eqn. (1) is evaluated between delegation
// nodes, so per-rack Dijkstra replaces the paper's Floyd–Warshall with
// identical results at far lower cost on large fabrics.
func (m *Model) Refresh() { m.RefreshSources(m.cluster.Graph.RackNodes()) }

// RefreshSources is Refresh for callers that know which racks will price
// migrations before the next refresh: the transmission weights are
// refilled once from current link state, and only the rows of the named
// rack nodes are swept now. Every other row is left stale and swept by the
// first query that reads it — against the weights retained from this
// call, so whenever a row is swept it is exactly the row a full Refresh
// here would have produced. Naming too few racks costs a late sweep,
// never a wrong answer; unknown and repeated nodes are ignored.
//
// Physical distance does not depend on bandwidth, so it is swept (from
// every rack) only when the wiring changed or on first build, and carried
// over otherwise; in steady state the call allocates nothing.
func (m *Model) RefreshSources(rackNodes []int) {
	g := m.cluster.Graph
	if !m.ready.Load() || g.StructVersion() != m.structVer {
		m.structVer = g.StructVersion()
		racks := g.RackNodes()
		if m.trans == nil {
			m.trans = &topology.MultiSource{}
		}
		m.trans.Reset(g, racks)
		m.trans.Reweigh(topology.DistanceCost)
		m.rows = m.rows[:0]
		for r := range racks {
			m.rows = append(m.rows, r)
		}
		m.trans.SweepRows(m.rows)
		m.setDistances(m.trans)
		m.swept = make([]atomic.Uint64, len(racks))
		m.gen = 0
	}
	m.trans.Reweigh(m.transCost)
	m.gen++
	rows := m.rows[:0]
	for _, node := range rackNodes {
		if r := m.trans.Row(node); r >= 0 && m.swept[r].Load() != m.gen {
			m.swept[r].Store(m.gen)
			rows = append(rows, r)
		}
	}
	m.rows = rows
	m.trans.SweepRows(rows)
	m.prepared.Add(uint64(len(rows)))
	m.ready.Store(true)
}

// setDistances copies the rack × rack block out of a table swept under
// topology.DistanceCost from every rack, in trans's row order.
func (m *Model) setDistances(ms *topology.MultiSource) {
	racks := m.cluster.Graph.RackNodes()
	if need := len(racks) * len(racks); cap(m.dist) >= need {
		m.dist = m.dist[:need]
	} else {
		m.dist = make([]float64, need)
	}
	for i, a := range racks {
		for j, b := range racks {
			m.dist[i*len(racks)+j] = ms.Dist(a, b)
		}
	}
}

// distance is Σ D(e) between two rack nodes, Inf for a node that is not a
// rack.
func (m *Model) distance(a, b int) float64 {
	i, j := m.trans.Row(a), m.trans.Row(b)
	if i < 0 || j < 0 {
		return topology.Inf
	}
	return m.dist[i*len(m.swept)+j]
}

// SweepCounts returns how many transmission rows have been swept ahead of
// use by Refresh/RefreshSources and how many on demand by a query that
// found its row stale. A high on-demand share means the caller of
// RefreshSources is naming the wrong racks.
func (m *Model) SweepCounts() (prepared, onDemand uint64) {
	return m.prepared.Load(), m.onDemand.Load()
}

// transFrom returns the transmission table with the row of the source
// rack node current, sweeping it first when it is stale.
func (m *Model) transFrom(src int) *topology.MultiSource {
	m.ensure()
	r := m.trans.Row(src)
	if r < 0 || m.swept[r].Load() == m.gen {
		return m.trans
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.swept[r].Load() != m.gen {
		m.one[0] = r
		m.trans.SweepRows(m.one[:])
		m.swept[r].Store(m.gen)
		m.onDemand.Add(1)
	}
	return m.trans
}

// Params returns the model constants.
func (m *Model) Params() Params { return m.params }

// TransmissionCost returns Σ_{e∈P}(δ·T(e) + η·P(e)) along the cheapest
// path between two racks for a VM of the given size. The path is the one
// minimizing the reference-size cost; per-edge terms are re-evaluated at
// the actual size. Returns ErrBandwidthBelowFloor when no feasible path
// exists.
func (m *Model) TransmissionCost(src, dst *dcn.Rack, size float64) (float64, error) {
	if src == dst {
		return 0, nil
	}
	// The path's links come off the parent chain into a stack buffer (no
	// node path, no adjacency rescans) and are summed src → dst: the float
	// sum depends on the order.
	var buf [16]int
	edges, ok := m.transFrom(src.NodeID).PathEdges(src.NodeID, dst.NodeID, buf[:0])
	if !ok {
		return 0, ErrBandwidthBelowFloor
	}
	total := 0.0
	for _, id := range edges {
		e := m.cluster.Graph.EdgeAt(id)
		if e.Bandwidth <= 0 || e.Bandwidth < m.params.BandwidthFloor {
			return 0, ErrBandwidthBelowFloor
		}
		total += m.params.Delta*(size/e.Bandwidth) + m.params.Eta*(e.Bandwidth/e.Capacity)
	}
	return total, nil
}

// Distance returns the physical-distance metric Σ D(e) between two racks.
func (m *Model) Distance(a, b *dcn.Rack) float64 {
	m.ensure()
	return m.distance(a.NodeID, b.NodeID)
}

// DependencyCost returns C_d times the net change in distance between the
// VM and the racks of its dependent peers if it moved from src to dst —
// the realization of the (Σ_{e∈G_r[N_d(v_i)]}D(e) − Σ_{e∈G_r[N_d(v_p)]}D(e))·C_d
// term of Sec. III.C. Moving toward peers yields a negative contribution.
func (m *Model) DependencyCost(vm *dcn.VM, src, dst *dcn.Rack) float64 {
	var buf [8]int
	return m.dependencyCost(src, dst, m.cluster.Deps.PeerRacks(m.cluster, vm.ID, buf[:0]))
}

// dependencyCost is DependencyCost over the peer racks themselves, summed
// in the order given.
func (m *Model) dependencyCost(src, dst *dcn.Rack, peerRacks []int) float64 {
	m.ensure()
	if src == dst {
		return 0
	}
	total := 0.0
	for _, idx := range peerRacks {
		peer := m.cluster.Racks[idx]
		total += m.distance(dst.NodeID, peer.NodeID) - m.distance(src.NodeID, peer.NodeID)
	}
	return m.params.Cd * total
}

// RackMigration is Eqn. (1) between racks, which is all it depends on: the
// cost of moving a VM of the given size from src to any host of dst, when
// its dependent peers sit in peerRacks (rack indices, as
// dcn.DependencyGraph.PeerRacks lists them): C_r + dependency cost +
// transmission cost. Every host of a rack prices the same, so a caller
// pricing many hosts asks once per rack.
func (m *Model) RackMigration(src, dst *dcn.Rack, size float64, peerRacks []int) (float64, error) {
	trans, err := m.TransmissionCost(src, dst, size)
	if err != nil {
		return 0, err
	}
	return m.params.Cr + m.dependencyCost(src, dst, peerRacks) + trans, nil
}

// Migration returns the full Eqn. (1) cost of migrating vm to the
// destination host. Migrating within the same host costs zero.
func (m *Model) Migration(vm *dcn.VM, dst *dcn.Host) (float64, error) {
	srcHost := vm.Host()
	if srcHost == nil {
		return 0, errors.New("cost: VM is not placed")
	}
	if srcHost == dst {
		return 0, nil
	}
	var buf [8]int
	peerRacks := m.cluster.Deps.PeerRacks(m.cluster, vm.ID, buf[:0])
	return m.RackMigration(srcHost.Rack(), dst.Rack(), vm.Capacity, peerRacks)
}

// RackPairCost returns the collapsed pair cost G(v_i, v_p) + C_r for a
// reference-size VM — the inter-rack metric handed to the k-median
// reduction of Sec. V.A. Same-rack cost is 0.
func (m *Model) RackPairCost(a, b *dcn.Rack) float64 {
	if a == b {
		return 0
	}
	d := m.transFrom(a.NodeID).Dist(a.NodeID, b.NodeID)
	if d == topology.Inf {
		return topology.Inf
	}
	return m.params.Cr + d
}

// RackCostMatrix materializes the full rack-pair cost matrix, indexed by
// rack Index. Used by the k-median experiments.
func (m *Model) RackCostMatrix() [][]float64 {
	racks := m.cluster.Racks
	out := make([][]float64, len(racks))
	for i, a := range racks {
		out[i] = make([]float64, len(racks))
		for j, b := range racks {
			out[i][j] = m.RackPairCost(a, b)
		}
	}
	return out
}
