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
	"runtime"
	"sync"
	"sync/atomic"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// Params holds the constants of Eqn. (1) that a caller may set. The
// paper's simulation settings (Sec. VI.B) are C_r = 100, δ = η = 1, and
// C_d = 1, which is the constant cd.
type Params struct {
	Cr             float64 // computing cost of one live migration
	Delta          float64 // δ: weight of transmission time T(e)
	Eta            float64 // η: weight of utilization rate P(e)
	BandwidthFloor float64 // B_t: minimum usable available bandwidth
	RefSize        float64 // reference VM size for the pair-cost table
}

// PaperParams returns the simulation constants of Sec. VI.B.
func PaperParams() Params {
	return Params{Cr: 100, Delta: 1, Eta: 1, BandwidthFloor: 0, RefSize: 10}
}

// cd is C_d, the unit dependency cost per distance in G_d, at the
// paper's 1.
const cd = 1

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Cr < 0 || p.Delta < 0 || p.Eta < 0 {
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

// Model evaluates migration costs over one cluster. Construct with New, or
// with Prepared.Model to read rows prepared once for many clusters; call
// Refresh (or RefreshSources, or MarkSources) after changing link
// bandwidths.
//
// Queries may run from several goroutines at once, and a row they find
// stale is swept once. A refresh can leave its rows pending (MarkSources):
// then SweepPending calls on their own sweepers may sweep them beside the
// queries, and a query that reads a pending row sweeps it itself, or waits
// for the sweeper that claimed it. Whoever sweeps a row sweeps it against
// the weights of the last refresh, so its bytes do not depend on who did.
// Refresh, RefreshSources and MarkSources must not run concurrently with
// queries, sweeps or each other.
type Model struct {
	params  Params
	cluster *dcn.Cluster

	// tab holds the transmission rows and their stamps, published whole so
	// that a model reading prepared rows can swap in its own copy beside
	// its queries (owned). Its weight vector is refilled by every refresh;
	// gen counts the refreshes, and regional says the last one's rows stop
	// at their regions. mu serializes the sweeps on sweeper 0, the
	// queries'; a row's stamp is the lock-free fast path, and a pending
	// row's claim.
	tab      atomic.Pointer[table]
	gen      uint64
	regional bool
	mu       sync.Mutex
	ready    atomic.Bool // tables built (false until a deferred model's first use)

	// The regions of regional rows, built on each row's first regional
	// sweep and kept until the wiring or the hop radius changes. walk and
	// nbrs are the building's reused memory, so a row first named mid-run
	// allocates nothing once the arena has grown.
	reg  regions
	walk topology.NeighborScratch
	nbrs []int

	prepared, onDemand atomic.Uint64 // rows named by refreshes / swept in full by queries

	// dist is Σ D(e) between racks, row-major by trans row. Distance does
	// not depend on bandwidth, so it is swept only by the first read after
	// the wiring changed (distances), and only the rack × rack block anyone
	// reads is kept. distReady is its fast path, as ready is tab's.
	dist       []float64
	distReady  atomic.Bool
	distBuilds int // tables built, under mu

	transCost topology.EdgeCost // per-edge δT+ηP, built once from params
	structVer uint64            // Graph.StructVersion behind tab's rows and dist
	rows      []int             // the rows the last refresh named, in order
}

// table is a model's transmission rows. trans holds Σ (δT+ηP) along the
// cheapest path from every rack, its rows swept when named or read:
// swept[r] is row r's stamp, the weight generation of its last state times
// four plus the state (rowPending…rowFull). A full row is current iff its
// stamp is stamp(rowFull); a regional one only for the racks of its region.
// A shared table is a Prepared's, which no one writes.
type table struct {
	trans  *topology.MultiSource
	swept  []atomic.Uint64
	shared bool
}

// regions holds the regions of regional rows, per trans row, at hop radius
// hops: serves holds row r's region racks as a bit set over trans rows
// (words per row), waitFor[r] the same racks as the nodes its sweep waits
// for, a slice of one shared arena. Shared regions are a Prepared's, which
// no one writes.
type regions struct {
	hops    int
	built   []bool
	serves  []uint64
	words   int
	waitFor [][]int32
	arena   []int32
	shared  bool
}

// The states of a trans row, the low two bits of its stamp.
const (
	rowPending  = iota // named by the last refresh, not swept yet
	rowClaimed         // being swept by the one who claimed it
	rowRegional        // swept for the racks of its region
	rowFull            // swept in full
)

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

// Prepared is a refresh's rows frozen for sharing: the transmission rows
// RefreshSources swept, their stamps, the weights they were swept against
// and the regions they answer for. Models over clusters wired and weighted
// alike read them in place (Model) and copy them only on their first write,
// so nothing writes them once prepared.
type Prepared struct {
	params   Params
	tab      *table
	gen      uint64
	regional bool
	reg      regions
	prepared uint64
}

// Prepare refreshes a model over c as RefreshSources(rackNodes, hops)
// does, and freezes its rows. The model is dropped, and with it its search
// state, c and c's graph: what is kept is the rows, their weights and
// regions, and the flattened view of the graph they are read through.
func Prepare(c *dcn.Cluster, p Params, rackNodes []int, hops int) (*Prepared, error) {
	m, err := NewDeferred(c, p)
	if err != nil {
		return nil, err
	}
	m.RefreshSources(rackNodes, hops)
	t := m.tab.Load()
	reg := m.reg
	reg.shared = true
	return &Prepared{
		params: p, tab: &table{trans: t.trans.Freeze(), swept: t.swept, shared: true},
		gen: m.gen, regional: m.regional, reg: reg, prepared: m.prepared.Load(),
	}, nil
}

// Model returns a model over c that reads the prepared rows in place: it
// answers as a model over c that RefreshSources had just refreshed with
// the prepared arguments, and counts those rows as prepared
// (SweepCounts). c's graph must be wired and weighted as the prepared
// cluster's was (topology.MultiSource.Fits); Model refuses any other.
//
// The model takes its own copy of the rows at its first write: a refresh,
// or a query that sweeps a row in full on demand. That query publishes
// the whole copy before it stamps the row, so queries beside it read the
// prepared rows or the copy, never a mix.
func (pr *Prepared) Model(c *dcn.Cluster) (*Model, error) {
	m, err := NewDeferred(c, pr.params)
	if err != nil {
		return nil, err
	}
	if !pr.tab.trans.Fits(c.Graph) {
		return nil, errors.New("cost: prepared rows read on a fabric wired or weighted otherwise")
	}
	m.tab.Store(pr.tab)
	m.gen, m.regional, m.reg, m.structVer = pr.gen, pr.regional, pr.reg, c.Graph.StructVersion()
	m.prepared.Store(pr.prepared)
	m.ready.Store(true)
	return m, nil
}

// owned returns the model's table, first replacing a shared one with the
// model's own copy of it, over its own fabric, whole before it is
// published: a query still reading the shared rows is undisturbed, and one
// that loads the table after the swap reads the copy. Call it under mu, or
// with no query running.
func (m *Model) owned() *table {
	t := m.tab.Load()
	if !t.shared {
		return t
	}
	own := &table{trans: t.trans.Clone(m.cluster.Graph), swept: make([]atomic.Uint64, len(t.swept))}
	for i := range t.swept {
		own.swept[i].Store(t.swept[i].Load())
	}
	m.tab.Store(own)
	return own
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
	m.MarkSources(rackNodes, hops, 1)
	t := m.tab.Load()
	for _, r := range m.rows {
		m.sweep(t, 0, r)
	}
}

// MarkSources is RefreshSources without the sweeps: it refills the
// weights and builds the named rows' regions as RefreshSources does, and
// leaves the rows pending. A pending row is swept by whoever claims it
// first: a SweepPending call, or the first query that reads it, which
// sweeps it inline; a query that finds it claimed waits for that sweep.
// Either way the row is swept against this call's weights, into the bytes
// RefreshSources gives it. sweepers readies the search states of that
// many sweepers: 0 is the queries', 1…sweepers−1 are SweepPending's. A row
// no one claims before the next refresh is swept in full by its first
// query after it, as any stale row is.
func (m *Model) MarkSources(rackNodes []int, hops, sweepers int) {
	g := m.cluster.Graph
	var t *table
	if !m.ready.Load() || g.StructVersion() != m.structVer {
		m.structVer = g.StructVersion()
		racks := g.RackNodes()
		t = &table{swept: make([]atomic.Uint64, len(racks))}
		if old := m.tab.Load(); old != nil && !old.shared {
			t.trans = old.trans // its arrays are reused
		} else {
			t.trans = &topology.MultiSource{}
		}
		t.trans.Reset(g, racks)
		m.tab.Store(t)
		m.gen = 0
		m.reg.built = nil
		m.distReady.Store(false)
	} else {
		t = m.owned()
	}
	t.trans.Reweigh(m.transCost)
	t.trans.Sweepers(sweepers)
	m.gen++
	m.regional = hops >= 0 && t.trans.PositiveWeights()
	rows := m.rows[:0]
	for _, node := range rackNodes {
		r := t.trans.Row(node)
		if r < 0 || t.swept[r].Load()>>2 == m.gen {
			continue
		}
		if m.regional {
			m.region(t.trans, r, hops)
		}
		t.swept[r].Store(m.stamp(rowPending))
		rows = append(rows, r)
	}
	m.rows = rows
	m.prepared.Add(uint64(len(rows)))
	m.ready.Store(true)
}

// SweepPending sweeps, on sweeper k (1 ≤ k < the sweepers MarkSources
// readied), the rows the last MarkSources left pending, from the back of
// its list: each it claims first, and a row someone else has claimed is
// theirs. It may run at the same time as queries and as other sweepers'
// SweepPending calls.
func (m *Model) SweepPending(k int) {
	t := m.tab.Load()
	pending, claimed := m.stamp(rowPending), m.stamp(rowClaimed)
	for i := len(m.rows) - 1; i >= 0; i-- {
		if r := m.rows[i]; t.swept[r].CompareAndSwap(pending, claimed) {
			m.sweep(t, k, r)
		}
	}
}

// stamp is the stamp of a row in the given state at the current weights.
func (m *Model) stamp(state uint64) uint64 { return m.gen<<2 | state }

// targets returns the nodes the sweep of trans row r, named by the last
// refresh, waits for: its region's when the refresh was regional, none (a
// full row) when not.
func (m *Model) targets(r int) []int32 {
	if m.regional {
		return m.reg.waitFor[r]
	}
	return nil
}

// sweep sweeps row r of table t, named by the last refresh, on sweeper k,
// and stamps it swept: the store is what a reader's load of the stamp
// synchronizes with.
func (m *Model) sweep(t *table, k, r int) {
	targets := m.targets(r)
	t.trans.SweepRowOn(k, r, targets)
	state := uint64(rowFull)
	if len(targets) > 0 {
		state = rowRegional
	}
	t.swept[r].Store(m.stamp(state))
}

// claim settles row r of table t, pending or claimed at the current
// weights, and returns its stamp: it sweeps the row on the queries'
// sweeper when it claims it first, and otherwise waits for the sweep of
// whoever did.
func (m *Model) claim(t *table, r int) uint64 {
	pending, claimed := m.stamp(rowPending), m.stamp(rowClaimed)
	if t.swept[r].CompareAndSwap(pending, claimed) {
		m.mu.Lock()
		m.sweep(t, 0, r)
		m.mu.Unlock()
	}
	for {
		if s := t.swept[r].Load(); s != claimed {
			return s
		}
		runtime.Gosched()
	}
}

// region builds trans row r's region under the hop radius, on the row's
// first regional sweep at that radius: the nodes its sweep waits for
// (waitFor[r]) and the racks it answers for (serves). A model reading a
// Prepared's regions builds its own instead of writing those.
func (m *Model) region(trans *topology.MultiSource, r, hops int) {
	g := m.cluster.Graph
	racks := g.RackNodes() // trans's sources, in row order
	reg := &m.reg
	if reg.shared {
		*reg = regions{}
	}
	if reg.built == nil || hops != reg.hops {
		reg.hops, reg.words = hops, (len(racks)+63)/64
		reg.built = make([]bool, len(racks))
		reg.serves = make([]uint64, len(racks)*reg.words)
		reg.waitFor = make([][]int32, len(racks))
		reg.arena = reg.arena[:0]
	}
	if !reg.built[r] {
		set := reg.serves[r*reg.words : (r+1)*reg.words]
		start := len(reg.arena)
		m.nbrs = g.AppendRackNeighbors(m.nbrs[:0], racks[r], hops, &m.walk)
		for _, t := range m.nbrs {
			j := trans.Row(t)
			set[j>>6] |= 1 << (j & 63)
			reg.arena = append(reg.arena, int32(t))
		}
		reg.built[r], reg.waitFor[r] = true, reg.arena[start:len(reg.arena):len(reg.arena)]
	}
}

// inRegion reports whether trans row r, swept regionally, answers for the
// rack node dst.
func (m *Model) inRegion(trans *topology.MultiSource, r, dst int) bool {
	j := trans.Row(dst)
	return j >= 0 && m.reg.serves[r*m.reg.words+j>>6]&(1<<(j&63)) != 0
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
	t := m.tab.Load()
	i, j := t.trans.Row(a), t.trans.Row(b)
	if i < 0 || j < 0 {
		return topology.Inf
	}
	return dist[i*len(t.swept)+j]
}

// SweepCounts returns how many transmission rows have been named ahead of
// use by a refresh (Refresh, RefreshSources, MarkSources), whoever swept
// them, and how many were swept on demand by a query that found its row
// stale. A high on-demand share means the refresh's caller is naming the
// wrong racks.
func (m *Model) SweepCounts() (prepared, onDemand uint64) {
	return m.prepared.Load(), m.onDemand.Load()
}

// transFor returns the transmission table with the row of the source rack
// node current for dst. A pending row is claimed and swept as the refresh
// named it, or waited for (claim); a stale row, or a regional one read for
// a rack outside its region, is then swept in full, into the model's own
// table (owned). That sweep writes no entry a regional one left final, so
// queries reading the regional row meanwhile are undisturbed.
func (m *Model) transFor(src, dst int) *topology.MultiSource {
	m.ensure()
	t := m.tab.Load()
	r := t.trans.Row(src)
	if r < 0 {
		return t.trans
	}
	s := t.swept[r].Load()
	if s>>2 == m.gen && s&3 < rowRegional {
		s = m.claim(t, r)
	}
	full := m.stamp(rowFull)
	if s == full || s == m.stamp(rowRegional) && m.inRegion(t.trans, r, dst) {
		return t.trans
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t = m.owned()
	if t.swept[r].Load() != full {
		t.trans.CompleteRow(r)
		t.swept[r].Store(full)
		m.onDemand.Add(1)
	}
	return t.trans
}

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
	return cd * total
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
