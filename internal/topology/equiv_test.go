package topology

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Equivalence harness for the CSR routing core: results must be
// bit-identical to the seed walkers preserved in reference_test.go (both sides
// share the smallest-predecessor tie rule, so their shortest-path trees
// are pure functions of the graph), and distances must agree with the
// Floyd–Warshall oracle on the paper's small fabrics.

// randomEquivGraph builds a connected random graph with deliberately few
// distinct distances and capacities, so equal-cost paths (the tie cases)
// are common rather than rare.
func randomEquivGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		kind := Rack
		if i%3 == 1 {
			kind = Switch
		}
		g.AddNode(kind, "", i%4, i%3)
	}
	dists := []float64{1, 1, 2, 3}
	caps := []float64{1, 2, 10}
	link := func(a, b int) {
		if err := g.AddLink(a, b, caps[rng.Intn(len(caps))], dists[rng.Intn(len(dists))]); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		link(i, rng.Intn(i)) // spanning tree: keeps the graph connected
	}
	for e := 0; e < 2*n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if _, dup := g.EdgeBetween(a, b); dup {
			continue
		}
		link(a, b)
	}
	return g
}

// bandwidthCost exercises every edge attribute, mirroring the cost
// model's transmission metric.
func bandwidthCost(e Edge) float64 {
	if e.Bandwidth <= 0 {
		return Inf
	}
	return 10/e.Bandwidth + e.Bandwidth/e.Capacity + 0.25*e.Distance
}

func assertSameMultiSource(t *testing.T, g *Graph, sources []int, ms *MultiSource, ref *refMultiSource, label string) {
	t.Helper()
	n := g.NumNodes()
	for _, s := range sources {
		for d := 0; d < n; d++ {
			got, want := ms.Dist(s, d), ref.Dist(s, d)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("%s: Dist(%d,%d) = %v, reference %v", label, s, d, got, want)
			}
			gp, wp := ms.Path(s, d, nil), ref.Path(s, d)
			if !slices.Equal(gp, wp) {
				t.Fatalf("%s: Path(%d,%d) = %v, reference %v", label, s, d, gp, wp)
			}
			assertPathEdges(t, g, ms, s, d, label)
		}
	}
}

// assertPathEdges checks PathEdges against Path: same reachability, one
// edge per hop, each edge joining the hop's endpoints, src → dst order.
func assertPathEdges(t *testing.T, g *Graph, ms *MultiSource, s, d int, label string) {
	t.Helper()
	path := ms.Path(s, d, nil)
	edges, ok := ms.PathEdges(s, d, nil)
	if ok != (path != nil) {
		t.Fatalf("%s: PathEdges(%d,%d) ok = %v, Path = %v", label, s, d, ok, path)
	}
	if !ok {
		return
	}
	if len(edges) != len(path)-1 {
		t.Fatalf("%s: PathEdges(%d,%d) has %d edges for path %v", label, s, d, len(edges), path)
	}
	for i, id := range edges {
		if e := g.EdgeAt(id); e.ID != id || e.From != path[i] || e.To != path[i+1] {
			t.Fatalf("%s: PathEdges(%d,%d)[%d] = edge %d (%d→%d), path hop %d→%d", label, s, d, i, id, e.From, e.To, path[i], path[i+1])
		}
	}
}

func TestCSRDijkstraMatchesReferenceOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(rng, 24+rng.Intn(16))
		var sources []int
		for i := 0; i < g.NumNodes(); i++ {
			sources = append(sources, i)
		}
		ms := DijkstraFrom(g, sources, bandwidthCost)
		ref := referenceDijkstraFrom(g, sources, bandwidthCost)
		assertSameMultiSource(t, g, sources, ms, ref, "fresh")

		// Patch bandwidths in place (the incremental CSR update) and
		// re-sweep into the same tables.
		for i := 0; i < 10; i++ {
			a := rng.Intn(g.NumNodes())
			es := g.Edges(a)
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			g.SetBandwidth(e.From, e.To, float64(rng.Intn(4))/2)
		}
		ms = DijkstraFromInto(g, sources, bandwidthCost, ms)
		ref = referenceDijkstraFrom(g, sources, bandwidthCost)
		assertSameMultiSource(t, g, sources, ms, ref, "patched")

		// Structural change invalidates the CSR; the next sweep rebuilds.
		a, b := 0, g.NumNodes()-1
		if _, dup := g.EdgeBetween(a, b); !dup {
			if err := g.AddLink(a, b, 5, 1); err != nil {
				t.Fatal(err)
			}
		}
		ms = DijkstraFromInto(g, sources, bandwidthCost, ms)
		ref = referenceDijkstraFrom(g, sources, bandwidthCost)
		assertSameMultiSource(t, g, sources, ms, ref, "relinked")
	}
}

// binadeGraph is randomEquivGraph priced across sixteen decades: each
// directed weight is drawn log-uniformly from 1e-8…1e8, or a third of the
// time repeats one of four shared draws, so exact duplicates keep
// equal-cost paths tying; one random edge is Inf. Three pendant nodes add
// the extremes: "tiny" hangs on a subnormal link, and "far" → "farther"
// hang one way on links near 1e150, their ways back Inf. The one-way rule is
// what keeps the oracle exact: from a node past a 1e150 link every other
// distance would round to that link's cost, ties the queue would decide —
// the zero-weight regime. The subnormal link is safe both ways, its far end
// having a single neighbour.
func binadeGraph(rng *rand.Rand, n int) (*Graph, EdgeCost) {
	g := randomEquivGraph(rng, n)
	tiny := g.AddNode(Rack, "tiny", -1, 0)
	far := g.AddNode(Rack, "far", -1, 0)
	farther := g.AddNode(Rack, "farther", -1, 0)
	hub, gate := rng.Intn(n), rng.Intn(n)
	for _, l := range [][2]int{{tiny, hub}, {gate, far}, {far, farther}} {
		if err := g.AddLink(l[0], l[1], 1, 1); err != nil {
			panic(err)
		}
	}
	logUniform := func() float64 { return math.Pow(10, 16*rng.Float64()-8) }
	shared := [4]float64{logUniform(), logUniform(), logUniform(), logUniform()}
	w := make([]float64, g.NumEdges())
	for id := range w {
		if rng.Intn(3) == 0 {
			w[id] = shared[rng.Intn(len(shared))]
		} else {
			w[id] = logUniform()
		}
	}
	w[rng.Intn(2*n)] = Inf
	sub := 3 * math.SmallestNonzeroFloat64
	w[g.EdgeIndex(tiny, hub)], w[g.EdgeIndex(hub, tiny)] = sub, sub
	w[g.EdgeIndex(gate, far)], w[g.EdgeIndex(far, gate)] = 1e150, Inf
	w[g.EdgeIndex(far, farther)], w[g.EdgeIndex(farther, far)] = math.Nextafter(1e150, Inf), Inf
	return g, func(e Edge) float64 { return w[e.ID] }
}

// maxPendingKeys replays the lazy-deletion Dijkstra from src and returns
// the most distinct keys its queue ever held at once, stale entries
// included: the load a row puts on the queue, whatever the queue is.
func maxPendingKeys(g *Graph, src int, cost EdgeCost) int {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	done := make([]bool, g.NumNodes())
	pending := map[float64]int{0: 1}
	q := &refPQ{{src, 0}}
	most := 0
	for q.Len() > 0 {
		most = max(most, len(pending))
		it := heap.Pop(q).(refPQItem)
		if pending[it.dist]--; pending[it.dist] == 0 {
			delete(pending, it.dist)
		}
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range g.Edges(it.node) {
			if nd := it.dist + cost(e); nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(q, refPQItem{e.To, nd})
				pending[nd]++
			}
		}
	}
	return most
}

// TestSweepMatchesReferenceAcrossBinades stresses the full sweep's radix
// queue, whose buckets follow the bits of the keys: on random graphs priced
// by binadeGraph (keys from subnormal to 1e150, exact duplicates, Inf
// edges), and on Fat-Tree 16, BCube 8 and a 16-spine leaf-spine under
// loadFabric, where a row holds dozens to hundreds of distinct keys
// pending at once. Every row's distances (as bits), parents, Path and
// PathEdges must be the reference walker's. All rows of all graphs
// interleave on one scratch, each after a stopped search on it, so neither
// a refill's leftovers nor sweepTo's can leak into the next sweep.
func TestSweepMatchesReferenceAcrossBinades(t *testing.T) {
	type tcase struct {
		label   string
		g       *Graph
		cost    EdgeCost
		sources []int
		ms      *MultiSource
	}
	var cases []*tcase
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		g, cost := binadeGraph(rng, 30+rng.Intn(30))
		all := make([]int, g.NumNodes())
		for i := range all {
			all[i] = i
		}
		cases = append(cases, &tcase{label: fmt.Sprintf("binades-%d", seed), g: g, cost: cost, sources: all})
	}
	ft, err := NewFatTree(FatTreeConfig{Pods: 16})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBCube(BCubeConfig{SwitchesPerLevel: 8})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeafSpine(LeafSpineConfig{Leaves: 64, Spines: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []struct {
		name  string
		g     *Graph
		floor int // the fewest distinct keys a rack row must hold pending at once
	}{
		{"fat-tree-16", ft.Graph, 64},
		{"bcube-8", bc.Graph, 40}, // 80 nodes: its rows peak at 41…71
		{"leaf-spine-16", ls.Graph, 64},
	} {
		loadFabric(f.g, int64(i+1))
		racks := f.g.Racks()
		for _, r := range racks {
			if p := maxPendingKeys(f.g, r, benchCost); p < f.floor {
				t.Fatalf("%s: the row of rack %d holds at most %d distinct keys pending, want ≥ %d", f.name, r, p, f.floor)
			}
		}
		cases = append(cases, &tcase{label: f.name, g: f.g, cost: benchCost, sources: racks})
	}

	shared := &sweepScratch{}
	most := 0
	for _, tc := range cases {
		tc.ms = &MultiSource{scratch: shared}
		tc.ms.Reset(tc.g, tc.sources)
		tc.ms.Reweigh(tc.cost)
		most = max(most, len(tc.sources))
	}
	rng := rand.New(rand.NewSource(25))
	for row := 0; row < most; row++ {
		for _, tc := range cases {
			if row >= len(tc.sources) {
				continue
			}
			tc.ms.SweepRowTo(row, rng.Intn(tc.g.NumNodes()), nil)
			tc.ms.SweepRows([]int{row})
		}
	}
	for _, tc := range cases {
		ref := referenceDijkstraFrom(tc.g, tc.sources, tc.cost)
		n := tc.g.NumNodes()
		for _, s := range tc.sources {
			for d := 0; d < n; d++ {
				if got, want := tc.ms.Dist(s, d), ref.Dist(s, d); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Dist(%d,%d) = %v, reference %v", tc.label, s, d, got, want)
				}
				if got, want := tc.ms.row(s)[d].p, ref.parent[s][d]; got != want {
					t.Fatalf("%s: parent of %d from %d = %d, reference %d", tc.label, d, s, got, want)
				}
				path := ref.Path(s, d)
				if got := tc.ms.Path(s, d, nil); !slices.Equal(got, path) {
					t.Fatalf("%s: Path(%d,%d) = %v, reference %v", tc.label, s, d, got, path)
				}
				var want []int
				for i := 1; i < len(path); i++ {
					want = append(want, tc.g.EdgeIndex(path[i-1], path[i]))
				}
				got, ok := tc.ms.PathEdges(s, d, nil)
				if ok != (path != nil) || !slices.Equal(got, want) {
					t.Fatalf("%s: PathEdges(%d,%d) = %v %v, reference path %v", tc.label, s, d, got, ok, path)
				}
			}
		}
	}
}

func TestCSRDijkstraMatchesFloydOracleExactly(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBCube(BCubeConfig{SwitchesPerLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{{"fattree", ft.Graph}, {"bcube", bc.Graph}} {
		fw := FloydWarshall(tc.g, DistanceCost)
		var all []int
		for i := 0; i < tc.g.NumNodes(); i++ {
			all = append(all, i)
		}
		ms := DijkstraFrom(tc.g, all, DistanceCost)
		for _, a := range all {
			for _, b := range all {
				// Small integral distances: sums are exact, so the oracle
				// comparison can demand bitwise equality.
				if ms.Dist(a, b) != fw.Dist(a, b) {
					t.Fatalf("%s: Dist(%d,%d) = %v, Floyd %v", tc.name, a, b, ms.Dist(a, b), fw.Dist(a, b))
				}
			}
		}
	}
}

// TestShortestPathAvoidingNodesMatchesReference holds the one way a search
// avoids a node — every edge into it priced Inf, the endpoints exempt — to
// the seed walker on random graphs: the stopped point-to-point search finds
// the path the reference's full search does.
func TestShortestPathAvoidingNodesMatchesReference(t *testing.T) {
	ms := &MultiSource{}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		g := randomEquivGraph(rng, 20)
		for trial := 0; trial < 10; trial++ {
			src, dst := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
			avoid := map[int]bool{}
			for j := 0; j < 3; j++ {
				avoid[rng.Intn(g.NumNodes())] = true
			}
			cost := func(e Edge) float64 {
				if avoid[e.To] && e.To != src && e.To != dst {
					return Inf
				}
				return bandwidthCost(e)
			}
			ms.Reset(g, []int{src})
			ms.Reweigh(cost)
			ms.SweepRowTo(0, dst, nil)
			got, want := ms.Path(src, dst, nil), referenceDijkstraFrom(g, []int{src}, cost).Path(src, dst)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d avoid %v: %v, reference %v", seed, avoid, got, want)
			}
		}
	}
}

// TestDijkstraSteadyStateZeroAlloc is the CI allocation gate: after
// warmup, a single-source sweep reusing its MultiSource must not allocate
// at all — the CSR, weight vector, heap, and result rows are all reused.
func TestDijkstraSteadyStateZeroAlloc(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 8})
	if err != nil {
		t.Fatal(err)
	}
	src := []int{ft.RackIDs[0][0]}
	var ms *MultiSource
	ms = DijkstraFromInto(ft.Graph, src, DistanceCost, ms) // warm: builds CSR + tables
	allocs := testing.AllocsPerRun(20, func() {
		ms = DijkstraFromInto(ft.Graph, src, DistanceCost, ms)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sweep allocates %v objects/op, want 0", allocs)
	}
}

// TestSweepRowsLateEqualsFullSweep is the exactness argument behind the
// cost model's demand-driven refresh: rows swept after Reweigh — in any
// grouping, however late, even after the graph's bandwidths have moved on —
// equal the rows of a full sweep taken at Reweigh time, because they run
// against the retained weights.
func TestSweepRowsLateEqualsFullSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomEquivGraph(rng, 20+rng.Intn(12))
		var sources []int
		for i := 0; i < g.NumNodes(); i += 2 {
			sources = append(sources, i)
		}
		ms := &MultiSource{}
		ms.Reset(g, sources)
		var moved []int // links patched since the last Reweigh, both directions
		for round := 0; round < 6; round++ {
			for i := 0; i < 8; i++ {
				id := rng.Intn(g.NumEdges())
				g.SetBandwidthAt(id, float64(rng.Intn(4))/2)
				moved = append(moved, id, ReverseEdge(id))
			}
			if round%2 == 0 {
				ms.Reweigh(bandwidthCost)
			} else { // re-pricing just the patched links is the same vector
				ms.ReweighEdges(moved, bandwidthCost)
			}
			moved = moved[:0]
			want := referenceDijkstraFrom(g, sources, bandwidthCost)

			perm := rng.Perm(len(sources))
			cut := rng.Intn(len(perm) + 1)
			ms.SweepRows(perm[:cut])
			for i := 0; i < 8; i++ { // link state moves on; the weights do not
				id := rng.Intn(g.NumEdges())
				g.SetBandwidthAt(id, float64(rng.Intn(4))/2)
				moved = append(moved, id, ReverseEdge(id))
			}
			for _, row := range perm[cut:] {
				ms.SweepRows([]int{row})
			}
			assertSameMultiSource(t, g, sources, ms, want, "late rows")
		}
	}
}

func TestRowMapsSourcesOnly(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	racks := ft.Racks()
	ms := &MultiSource{}
	ms.Reset(ft.Graph, racks)
	for i, r := range racks {
		if got := ms.Row(r); got != i {
			t.Fatalf("Row(%d) = %d, want %d", r, got, i)
		}
	}
	for _, n := range append(ft.Switches(), -1, ft.NumNodes()) {
		if got := ms.Row(n); got != -1 {
			t.Fatalf("Row(%d) = %d for a non-source, want -1", n, got)
		}
	}
}

// TestReweighAfterStructuralChangePanics: the tables are bound to the CSR
// view they were Reset against; reweighing across an AddLink is a bug.
func TestReweighAfterStructuralChangePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomEquivGraph(rng, 12)
	ms := DijkstraFrom(g, []int{0}, DistanceCost)
	g.AddNode(Switch, "late", -1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Reweigh across a structural change did not panic")
		}
	}()
	ms.Reweigh(DistanceCost)
}

// TestMultiSourceReuseAcrossShapes re-targets one MultiSource across
// different graphs and source sets, which must behave exactly like fresh
// tables each time.
func TestMultiSourceReuseAcrossShapes(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBCube(BCubeConfig{SwitchesPerLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ms *MultiSource
	for _, tc := range []struct {
		g       *Graph
		sources []int
	}{
		{ft.Graph, ft.Racks()},
		{ft.Graph, ft.Racks()[:2]},
		{bc.Graph, bc.Racks()},
		{ft.Graph, []int{ft.RackIDs[1][1]}},
	} {
		ms = DijkstraFromInto(tc.g, tc.sources, DistanceCost, ms)
		ref := referenceDijkstraFrom(tc.g, tc.sources, DistanceCost)
		assertSameMultiSource(t, tc.g, tc.sources, ms, ref, "reuse")
		// A node dropped from the source set must report Inf again.
		for i := 0; i < tc.g.NumNodes(); i++ {
			inSources := false
			for _, s := range tc.sources {
				if s == i {
					inSources = true
				}
			}
			if !inSources && !math.IsInf(ms.Dist(i, 0), 1) {
				t.Fatalf("stale source %d still answers", i)
			}
		}
	}
}

// TestConcurrentSweepsShareCSR drives concurrent readers through the lazy
// CSR build; run under -race in CI.
func TestConcurrentSweepsShareCSR(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := DijkstraFrom(ft.Graph, ft.Racks()[:1], DistanceCost).Dist(ft.RackIDs[0][0], ft.RackIDs[2][0])

	fresh, err := NewFatTree(FatTreeConfig{Pods: 6}) // CSR not built yet
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fresh.RackIDs[w%6][0]
			ms := DijkstraFrom(fresh.Graph, []int{src}, DistanceCost)
			if w%2 == 0 {
				DijkstraFrom(fresh.Graph, []int{fresh.RackIDs[(w+2)%6][1]}, DistanceCost)
			}
			if got := ms.Dist(src, src); got != 0 {
				t.Errorf("self distance %v", got)
			}
			if w == 0 {
				if got := ms.Dist(fresh.RackIDs[0][0], fresh.RackIDs[2][0]); got != want {
					t.Errorf("concurrent sweep dist %v, want %v", got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}
