package flow

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sheriff/internal/timeseries"
)

// FlowColumns is the flow table as columns: entry i of every column but
// Path is one flow, in ascending ID order. Paths travel whole — routes are
// load-sensitive at admission time and persist across reroutes, so they
// cannot be recomputed on restore without diverging from the live
// network — one after another in Path: flow i's is
// Path[PathEnd[i-1]:PathEnd[i]] (from 0 for the first flow). IDs,
// endpoints and paths stay decimal; rates are timeseries.Bits, exact and
// without shortest-decimal formatting.
type FlowColumns struct {
	ID             []int           `json:"id"`
	Src            []int           `json:"src"`
	Dst            []int           `json:"dst"`
	Path           []int           `json:"path"`
	PathEnd        []int           `json:"path_end"`
	DelaySensitive []bool          `json:"delay_sensitive"`
	Rate           timeseries.Bits `json:"rate"`
}

// LoadColumns is the directed links' exact offered loads, one entry per
// link in each column. Loads are in principle derivable from the flow
// paths, but the live network updates them incrementally (SetRate adds and
// subtracts rates in place), so the accumulated floating-point state
// differs from a fresh recompute by ulps. Carrying the exact values keeps
// a restored network bit-identical to the one that never stopped.
type LoadColumns struct {
	A    []int           `json:"a"`
	B    []int           `json:"b"`
	Load timeseries.Bits `json:"load"`
}

// Snapshot captures the network's flow table and exact link loads.
type Snapshot struct {
	Flows  FlowColumns `json:"flows"`
	Loads  LoadColumns `json:"loads"`
	NextID int         `json:"next_id"`
}

// Snapshot returns a deep copy of the flow table, ordered by flow ID, and
// the non-zero link loads, ordered by (A, B). It fails when a rate or a
// load is NaN or ±Inf, which no snapshot can carry. The result is a value
// that shares nothing with the network: its columns are carved from one
// fresh array per element kind (every int column, the flags, the packed
// rates and loads), so it allocates those three and the snapshot, however
// many flows and links there are.
func (n *Network) Snapshot() (*Snapshot, error) {
	nf, hops := len(n.flows), 0
	for _, f := range n.flows {
		hops += len(f.path)
	}
	load, order := n.loads(), n.linkOrder()
	loaded := 0
	for _, l := range load {
		if l != 0 {
			loaded++
		}
	}
	ints := make([]int, 4*nf+hops+2*loaded)
	bits := make(timeseries.Bits, 8*(nf+loaded))
	fc := FlowColumns{ID: timeseries.Carve(&ints, nf), Src: timeseries.Carve(&ints, nf), Dst: timeseries.Carve(&ints, nf),
		Path: timeseries.Carve(&ints, hops)[:0], PathEnd: timeseries.Carve(&ints, nf), DelaySensitive: make([]bool, nf),
		Rate: timeseries.Carve(&bits, 8*nf)[:0]}
	for i, f := range n.flows {
		fc.ID[i], fc.Src[i], fc.Dst[i], fc.DelaySensitive[i] = f.ID, f.Src, f.Dst, f.DelaySensitive
		fc.Path = append(fc.Path, f.path...)
		fc.PathEnd[i] = len(fc.Path)
		var err error
		if fc.Rate, err = timeseries.AppendPack(fc.Rate, f.Rate); err != nil {
			return nil, fmt.Errorf("flow: snapshot flow %d rate: %w", f.ID, err)
		}
	}
	lc := LoadColumns{A: timeseries.Carve(&ints, loaded)[:0], B: ints[:0], Load: bits[:0]}
	for _, id := range order {
		if l := load[id]; l != 0 {
			e := n.g.EdgeAt(id)
			var err error
			if lc.Load, err = timeseries.AppendPack(lc.Load, l); err != nil {
				return nil, fmt.Errorf("flow: snapshot load on link %d→%d: %w", e.From, e.To, err)
			}
			lc.A, lc.B = append(lc.A, e.From), append(lc.B, e.To)
		}
	}
	return &Snapshot{Flows: fc, Loads: lc, NextID: n.nextID}, nil
}

// linkOrder returns every link's ID in (From, To) order, sorted once for
// the graph's wiring and again only when the wiring changes.
func (n *Network) linkOrder() []int {
	if ver := n.g.StructVersion(); n.byEnds == nil || ver != n.byEndsVer {
		n.byEnds = make([]int, n.g.NumEdges())
		for id := range n.byEnds {
			n.byEnds[id] = id
		}
		slices.SortStableFunc(n.byEnds, func(x, y int) int {
			ex, ey := n.g.EdgeAt(x), n.g.EdgeAt(y)
			return cmp.Or(cmp.Compare(ex.From, ey.From), cmp.Compare(ex.To, ey.To))
		})
		n.byEndsVer = ver
	}
	return n.byEnds
}

// Restore rebuilds the flow table from a snapshot. The network must be
// empty (freshly constructed over the same topology graph); the columns of
// each table must be of equal length, the path ends must not decrease or
// run past the path column, and every path must be a walk over existing
// links with the flow's endpoints at its ends. All of that is checked
// before anything sized by the columns is allocated. When the snapshot
// carries link loads they are installed verbatim (preserving the live
// network's accumulated floating-point state), except that a negative load
// is refused: the route searches' lower bound rests on load ≥ 0
// (lowerBound). A link a path crosses that has no entry holds load 0, which
// Snapshot leaves out — a zero-rate flow's links, say. Without any
// entries, loads are recomputed from the restored paths. The cached
// congestion readings are dropped; the next HotSwitches rescans every node.
func (n *Network) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("flow: restore from nil snapshot")
	}
	if len(n.flows) != 0 {
		return fmt.Errorf("flow: restore into non-empty network (%d flows)", len(n.flows))
	}
	fc, lc := &snap.Flows, &snap.Loads
	rates, err := fc.Rate.Floats()
	if err != nil {
		return fmt.Errorf("flow: snapshot rate: %w", err)
	}
	loads, err := lc.Load.Floats()
	if err != nil {
		return fmt.Errorf("flow: snapshot load: %w", err)
	}
	nf := len(fc.ID)
	if len(fc.Src) != nf || len(fc.Dst) != nf || len(fc.PathEnd) != nf || len(fc.DelaySensitive) != nf || len(rates) != nf {
		return fmt.Errorf("flow: snapshot flow columns of unequal length: %d ids, %d srcs, %d dsts, %d path ends, %d delay_sensitive, %d rates",
			nf, len(fc.Src), len(fc.Dst), len(fc.PathEnd), len(fc.DelaySensitive), len(rates))
	}
	if len(lc.B) != len(lc.A) || len(loads) != len(lc.A) {
		return fmt.Errorf("flow: snapshot load columns of unequal length: %d a, %d b, %d loads", len(lc.A), len(lc.B), len(loads))
	}
	from := 0
	for i, end := range fc.PathEnd {
		if end < from || end > len(fc.Path) {
			return fmt.Errorf("flow: snapshot path end %d of flow %d is outside %d..%d", end, fc.ID[i], from, len(fc.Path))
		}
		from = end
	}
	if from != len(fc.Path) {
		return fmt.Errorf("flow: snapshot path column runs %d past the last flow's path", len(fc.Path)-from)
	}
	path := func(i int) []int {
		if i == 0 {
			return fc.Path[:fc.PathEnd[0]]
		}
		return fc.Path[fc.PathEnd[i-1]:fc.PathEnd[i]]
	}
	seen := make(map[int]bool, nf)
	routes := make([][]int, nf)
	for i, id := range fc.ID {
		if seen[id] {
			return fmt.Errorf("flow: snapshot has duplicate flow id %d", id)
		}
		seen[id] = true
		if id >= snap.NextID {
			return fmt.Errorf("flow: snapshot flow id %d not below next_id %d", id, snap.NextID)
		}
		if checkRate(rates[i]) != nil { // as AddFlow and SetRate
			return fmt.Errorf("flow: snapshot flow %d has rate %v, want a positive finite number", id, rates[i])
		}
		edges, err := n.pathEdges(id, fc.Src[i], fc.Dst[i], path(i))
		if err != nil {
			return err
		}
		routes[i] = edges
	}
	covered := make([]bool, len(n.loads())) // links some restored path crosses
	for i, id := range fc.ID {
		f := &Flow{ID: id, Src: fc.Src[i], Dst: fc.Dst[i], Rate: rates[i], DelaySensitive: fc.DelaySensitive[i], net: n}
		if p := path(i); len(p) > 0 {
			n.applyPath(f, slices.Clone(p), routes[i])
			n.longest = max(n.longest, len(p))
		}
		for _, e := range routes[i] {
			covered[e] = true
		}
		n.flows = append(n.flows, f)
	}
	sort.Slice(n.flows, func(i, j int) bool { return n.flows[i].ID < n.flows[j].ID })
	if len(loads) > 0 {
		load := make([]float64, len(covered))
		installed := make([]bool, len(covered))
		for i, l := range loads {
			a, b := lc.A[i], lc.B[i]
			id := n.g.EdgeIndex(a, b)
			if id >= 0 && installed[id] {
				return fmt.Errorf("flow: snapshot has duplicate load entry for link %d→%d", a, b)
			}
			if id < 0 || !covered[id] {
				return fmt.Errorf("flow: snapshot load entry %d→%d not covered by any flow path", a, b)
			}
			if !(l >= 0) { // negative: the live network never holds one (settle)
				return fmt.Errorf("flow: snapshot load %v on link %d→%d is not a load (want ≥ 0)", l, a, b)
			}
			installed[id] = true
			load[id] = l
		}
		for id, l := range load {
			if l != n.load[id] {
				n.touch(id)
			}
		}
		n.load = load
	}
	n.nextID = snap.NextID
	n.readOK = false // loads were installed wholesale, unmarked: the next refresh rescans every node
	return nil
}

// pathEdges validates a snapshot flow's path and resolves it to edge IDs.
func (n *Network) pathEdges(id, src, dst int, path []int) ([]int, error) {
	if len(path) == 0 {
		return nil, nil
	}
	if path[0] != src || path[len(path)-1] != dst {
		return nil, fmt.Errorf("flow: snapshot flow %d path endpoints %d→%d do not match flow %d→%d",
			id, path[0], path[len(path)-1], src, dst)
	}
	edges := make([]int, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if a < 0 || a >= n.g.NumNodes() || b < 0 || b >= n.g.NumNodes() {
			return nil, fmt.Errorf("flow: snapshot flow %d path node out of range (%d→%d)", id, a, b)
		}
		e := n.g.EdgeIndex(a, b)
		if e < 0 {
			return nil, fmt.Errorf("flow: snapshot flow %d path uses missing link %d→%d", id, a, b)
		}
		edges = append(edges, e)
	}
	return edges, nil
}
