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
// function g(v_i, v_p, e_ip) into a pair function G(v_i, v_p): the cost
// between two racks is that of the cheapest path under the per-edge
// transmission cost, never of whichever path is taken. The paper runs
// Floyd–Warshall; this model runs one Dijkstra row per source rack with
// the same results. A row prepared by RefreshSources is regional: it is
// swept only until its answers for the racks of its source's region are
// final, past no node that cannot reach one of them cheaply (the rules and
// why they are exact are at the sweep loop in topology's csr.go). A row
// read for any other rack is swept in full on demand. The physical-distance
// table of the dependency term is built by its first reader: a model
// whose VMs have no dependent peers never sweeps it.
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
	// times two, plus one when the row is full. A full row is current iff
	// that equals full(); a regional row (RefreshSources) one less, and
	// then only for the racks of its region. mu serializes the sweeps
	// queries trigger; the stamp is the lock-free fast path.
	trans *topology.MultiSource
	swept []atomic.Uint64
	gen   uint64
	mu    sync.Mutex
	ready atomic.Bool // tables built (false until a deferred model's first use)

	// The regions of regional rows, per trans row, built on the row's first
	// regional sweep and kept until the wiring or the hop radius changes:
	// serves holds row r's region racks as a bit set over trans rows
	// (words per row), waitFor[r] the same racks as the nodes its sweep
	// waits for, a slice of one shared arena. The rest is the building's
	// reused memory, so a row first named mid-run allocates nothing once
	// the arena has grown.
	hops    int
	built   []bool
	serves  []uint64
	words   int
	waitFor [][]int32
	arena   []int32
	walk    topology.NeighborScratch
	nbrs    []int
	until   [][]int32 // RefreshSources scratch, parallel to rows

	prepared, onDemand atomic.Uint64 // rows swept by refreshes / by queries

	// dist is Σ D(e) between racks, row-major by trans row. Distance does
	// not depend on bandwidth, so it is swept only by the first read after
	// the wiring changed (distances), and only the rack × rack block anyone
	// reads is kept. distReady is its fast path, as ready is trans's.
	dist       []float64
	distReady  atomic.Bool
	distBuilds int // tables built, under mu

	transCost topology.EdgeCost // per-edge δT+ηP, built once from params
	structVer uint64            // Graph.StructVersion behind trans's rows and dist
	rows      []int             // RefreshSources scratch
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
		m.RefreshSources(nil, -1)
	}
}

// Refresh recomputes the shortest-path tables from current link state,
// full rows from every rack. Only rack nodes are sources — Eqn. (1) is
// evaluated between delegation nodes, so per-rack Dijkstra replaces the
// paper's Floyd–Warshall with identical results at far lower cost on large
// fabrics.
func (m *Model) Refresh() { m.RefreshSources(m.cluster.Graph.RackNodes(), -1) }

// RefreshSources is Refresh for callers that know which racks will price
// migrations before the next refresh, and to where: the transmission
// weights are refilled once from current link state, and only the rows of
// the named rack nodes are swept now, each only as far as its region
// needs. A source's region is the racks within hops interior switches of
// it (topology.Graph.RackNeighbors, the shim's dominating region); its row
// is swept until those racks, or all their neighbours, have settled,
// skipping what cannot lead to them cheaply, which leaves the row's
// answers for them bit for bit the full row's (topology.SweepRowsUntil;
// the rules and their argument are at its sweep loop, in csr.go). hops < 0
// sweeps the named rows in full.
//
// Every other row, and a regional row read for a rack outside its region,
// is swept in full by the first query that needs it, against the weights
// retained from this call: whenever a row is swept it is exactly the row a
// full Refresh here would have produced. Naming too few racks, or too small
// a radius, costs a late sweep, never a wrong answer; unknown and repeated
// nodes are ignored. The stop is exact only when every weight is above
// zero, so rows stay full when one is not (δ = η = 0, say).
//
// Physical distance does not depend on bandwidth, so the call never sweeps
// it: a wiring change only drops the distance table, and the first read
// that needs it builds it again. A row's region is built on its first
// regional sweep and kept until the wiring or hops change; in steady state
// the call allocates nothing.
func (m *Model) RefreshSources(rackNodes []int, hops int) {
	g := m.cluster.Graph
	if !m.ready.Load() || g.StructVersion() != m.structVer {
		m.structVer = g.StructVersion()
		racks := g.RackNodes()
		if m.trans == nil {
			m.trans = &topology.MultiSource{}
		}
		m.trans.Reset(g, racks)
		m.swept = make([]atomic.Uint64, len(racks))
		m.gen = 0
		m.built = nil
		m.distReady.Store(false)
	}
	m.trans.Reweigh(m.transCost)
	m.gen++
	regional := hops >= 0 && m.trans.PositiveWeights()
	rows, until := m.rows[:0], m.until[:0]
	for _, node := range rackNodes {
		r := m.trans.Row(node)
		if r < 0 || m.swept[r].Load()>>1 == m.gen {
			continue
		}
		var wait []int32
		if regional {
			wait = m.region(r, hops)
		}
		stamp := m.full()
		if len(wait) > 0 {
			stamp--
		}
		m.swept[r].Store(stamp)
		rows, until = append(rows, r), append(until, wait)
	}
	m.rows, m.until = rows, until
	m.trans.SweepRowsUntil(rows, until)
	m.prepared.Add(uint64(len(rows)))
	m.ready.Store(true)
}

// full is the stamp of a row swept in full at the current weights.
func (m *Model) full() uint64 { return m.gen<<1 | 1 }

// region returns the nodes trans row r's regional sweep waits for under
// the hop radius, building the row's region on first use.
func (m *Model) region(r, hops int) []int32 {
	g := m.cluster.Graph
	racks := g.RackNodes() // trans's sources, in row order
	if m.built == nil || hops != m.hops {
		m.hops, m.words = hops, (len(racks)+63)/64
		m.built = make([]bool, len(racks))
		m.serves = make([]uint64, len(racks)*m.words)
		m.waitFor = make([][]int32, len(racks))
		m.arena = m.arena[:0]
	}
	if !m.built[r] {
		set := m.serves[r*m.words : (r+1)*m.words]
		start := len(m.arena)
		m.nbrs = g.AppendRackNeighbors(m.nbrs[:0], racks[r], hops, &m.walk)
		for _, t := range m.nbrs {
			j := m.trans.Row(t)
			set[j>>6] |= 1 << (j & 63)
			m.arena = append(m.arena, int32(t))
		}
		m.built[r], m.waitFor[r] = true, m.arena[start:len(m.arena):len(m.arena)]
	}
	return m.waitFor[r]
}

// inRegion reports whether trans row r, swept regionally, answers for the
// rack node dst.
func (m *Model) inRegion(r, dst int) bool {
	j := m.trans.Row(dst)
	return j >= 0 && m.serves[r*m.words+j>>6]&(1<<(j&63)) != 0
}

// distBlock is how many rack rows the distance build sweeps at once. Its
// search table holds only those rows and is dropped once they are copied
// out, so building the block never holds a second full-size table.
const distBlock = 64

// distances returns the rack × rack distance block, building it first when
// no query has read it since the wiring changed. Like ensure, an atomic
// load is the fast path and the build runs once, behind the model's lock.
func (m *Model) distances() []float64 {
	m.ensure()
	if m.distReady.Load() {
		return m.dist
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.distReady.Load() {
		m.setDistances()
		m.distBuilds++
		m.distReady.Store(true)
	}
	return m.dist
}

// setDistances sweeps Σ D(e) from every rack, distBlock rows at a time,
// into the rack × rack block in trans's row order.
func (m *Model) setDistances() {
	g := m.cluster.Graph
	racks := g.RackNodes()
	if need := len(racks) * len(racks); cap(m.dist) >= need {
		m.dist = m.dist[:need]
	} else {
		m.dist = make([]float64, need)
	}
	var ms *topology.MultiSource
	for lo := 0; lo < len(racks); lo += distBlock {
		block := racks[lo:min(lo+distBlock, len(racks))]
		ms = topology.DijkstraFromInto(g, block, topology.DistanceCost, ms)
		for i, a := range block {
			row := m.dist[(lo+i)*len(racks) : (lo+i+1)*len(racks)]
			for j, b := range racks {
				row[j] = ms.Dist(a, b)
			}
		}
	}
}

// distance is Σ D(e) between two rack nodes in the block dist, Inf for a
// node that is not a rack.
func (m *Model) distance(dist []float64, a, b int) float64 {
	i, j := m.trans.Row(a), m.trans.Row(b)
	if i < 0 || j < 0 {
		return topology.Inf
	}
	return dist[i*len(m.swept)+j]
}

// SweepCounts returns how many transmission rows have been swept ahead of
// use by Refresh/RefreshSources and how many on demand by a query that
// found its row stale. A high on-demand share means the caller of
// RefreshSources is naming the wrong racks.
func (m *Model) SweepCounts() (prepared, onDemand uint64) {
	return m.prepared.Load(), m.onDemand.Load()
}

// transFor returns the transmission table with the row of the source rack
// node current for dst, sweeping it in full first when it is stale, or
// regional for a region dst is not in. That sweep writes no entry a
// regional one left final, so queries reading the regional row meanwhile
// are undisturbed.
func (m *Model) transFor(src, dst int) *topology.MultiSource {
	m.ensure()
	r := m.trans.Row(src)
	if r < 0 {
		return m.trans
	}
	full := m.full()
	if s := m.swept[r].Load(); s == full || s == full-1 && m.inRegion(r, dst) {
		return m.trans
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.swept[r].Load() != full {
		m.trans.CompleteRow(r)
		m.swept[r].Store(full)
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
	edges, ok := m.transFor(src.NodeID, dst.NodeID).PathEdges(src.NodeID, dst.NodeID, buf[:0])
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
	return m.distance(m.distances(), a.NodeID, b.NodeID)
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
// in the order given. Only a VM with peers reads the distance table.
func (m *Model) dependencyCost(src, dst *dcn.Rack, peerRacks []int) float64 {
	if src == dst || len(peerRacks) == 0 {
		return 0
	}
	dist := m.distances()
	total := 0.0
	for _, idx := range peerRacks {
		peer := m.cluster.Racks[idx]
		total += m.distance(dist, dst.NodeID, peer.NodeID) - m.distance(dist, src.NodeID, peer.NodeID)
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
	d := m.transFor(a.NodeID, b.NodeID).Dist(a.NodeID, b.NodeID)
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
