package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sheriff/internal/alloctest"
)

// stopFabrics are the fabrics of the stop-rule tests: the three small ones,
// and a BCube(8) wide enough that "spread" weights keep dozens of distinct
// distances pending, spread over many of the full sweep's radix buckets.
func stopFabrics(t *testing.T) map[string]*Graph {
	t.Helper()
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBCube(BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeafSpine(LeafSpineConfig{Leaves: 12, Spines: 3})
	if err != nil {
		t.Fatal(err)
	}
	bc8, err := NewBCube(BCubeConfig{SwitchesPerLevel: 8})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"fat-tree": ft.Graph, "bcube": bc.Graph, "leaf-spine": ls.Graph, "bcube-8": bc8.Graph}
}

// stopWeights draws one weight per directed edge. "ties" keeps to three
// values, so equal-cost paths abound and a full sweep pops most keys from
// its radix queue's bucket 0; "spread" draws the load-aware metric under
// random loads, whose many distinct distances make it refill; "cut"
// is "ties" with every edge into one node priced Inf, which leaves that
// node unreachable; "free" is "cut" with one zero-weight link, the case
// whose tie between the link's two ends goes by queue order.
func stopWeights(rng *rand.Rand, g *Graph, regime string) EdgeCost {
	w := make([]float64, g.NumEdges())
	for id := range w {
		e := g.EdgeAt(id)
		if regime == "spread" {
			w[id] = e.Distance * (1 + 0.1*rng.Float64()/e.Capacity)
		} else {
			w[id] = 1 + float64(rng.Intn(3))/2
		}
	}
	if regime == "free" {
		free := rng.Intn(len(w))
		w[free], w[ReverseEdge(free)] = 0, 0
	}
	cut := -1
	if regime == "cut" || regime == "free" {
		cut = rng.Intn(g.NumNodes())
	}
	return func(e Edge) float64 {
		if e.To == cut {
			return Inf
		}
		return w[e.ID]
	}
}

// TestSweepRowToEqualsFullRow is the exactness argument behind the
// point-to-point queries of the traffic plane, without a bound: for every
// (src, dst) the stopped row answers Path, PathEdges and Dist for dst
// exactly as the full row does; a destination that is not reached leaves the
// full row in every entry; and an early exit leaves the scratch (heap,
// settled epoch) fit for whatever sweep comes next — stopped and full sweeps
// interleave on one scratch throughout. With a zero-weight link ("free") the
// stopped search runs on another queue than the full sweep and may break the
// tie between the link's ends the other way: there the distance is still the
// full sweep's, and the tree is held bit for bit to the point-to-point loop
// run to exhaustion, of which a stopped search is a prefix.
func TestSweepRowToEqualsFullRow(t *testing.T) {
	for name, g := range stopFabrics(t) {
		for _, regime := range []string{"ties", "spread", "cut", "free"} {
			rng := rand.New(rand.NewSource(16))
			cost := stopWeights(rng, g, regime)
			n := g.NumNodes()
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			full := DijkstraFrom(g, all, cost)
			ms := &MultiSource{}
			ms.Reset(g, all)
			ms.Reweigh(cost)
			// tree is the table Path and PathEdges are held to: the full
			// sweep's, or under "free" the unstopped point-to-point loop's.
			tree := full
			if regime == "free" {
				tree = &MultiSource{}
				tree.Reset(g, all)
				tree.Reweigh(cost)
				sc := tree.ensureScratch()
				for src := 0; src < n; src++ {
					sc.sweepTo(tree.c, int32(src), -1, tree.weights, tree.row(src), nil, 0)
				}
			}
			label := name + "/" + regime
			unreached := 0
			for src := 0; src < n; src++ {
				fullRow := full.row(src)
				for dst := 0; dst < n; dst++ {
					reached := ms.SweepRowTo(src, dst, nil)
					if want := full.Dist(src, dst) < Inf; reached != want {
						t.Fatalf("%s: SweepRowTo(%d,%d) = %v, full row reaches it: %v", label, src, dst, reached, want)
					}
					if got, want := ms.Dist(src, dst), full.Dist(src, dst); got != want {
						t.Fatalf("%s: stopped Dist(%d,%d) = %v, full %v", label, src, dst, got, want)
					}
					if got := ms.Path(src, dst, nil); reached && pathCost(g, got, cost) != full.Dist(src, dst) {
						t.Fatalf("%s: stopped Path(%d,%d) = %v costs %v, Dist is %v", label, src, dst, got, pathCost(g, got, cost), full.Dist(src, dst))
					}
					samePath(t, label, ms, tree, src, dst)
					if !reached {
						unreached++
						if !slices.Equal(ms.row(src), tree.row(src)) {
							t.Fatalf("%s: sweep from %d never met %d yet its row is not the full row", label, src, dst)
						}
					}
					if dst%5 == 0 { // a full sweep right after an early exit
						ms.SweepRows([]int{src})
						if !slices.Equal(ms.row(src), fullRow) {
							t.Fatalf("%s: full sweep from %d after a stopped one differs from a clean full sweep", label, src)
						}
					}
				}
			}
			if (regime == "cut" || regime == "free") != (unreached > 0) {
				t.Fatalf("%s: %d unreached destinations", label, unreached)
			}
		}
	}
}

// pathCost sums the edge costs along a node path, in path order; Inf when a
// hop has no edge.
func pathCost(g *Graph, path []int, cost EdgeCost) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		e, ok := g.EdgeBetween(path[i-1], path[i])
		if !ok {
			return Inf
		}
		total += cost(e)
	}
	return total
}

// samePath fails the test unless got answers Path and PathEdges for
// (src, dst) exactly as want does.
func samePath(t *testing.T, label string, got, want *MultiSource, src, dst int) {
	t.Helper()
	if g, w := got.Path(src, dst, nil), want.Path(src, dst, nil); !slices.Equal(g, w) {
		t.Fatalf("%s: Path(%d,%d) = %v, full row %v", label, src, dst, g, w)
	}
	g, gOK := got.PathEdges(src, dst, nil)
	w, wOK := want.PathEdges(src, dst, nil)
	if gOK != wOK || !slices.Equal(g, w) {
		t.Fatalf("%s: PathEdges(%d,%d) = %v %v, full row %v %v", label, src, dst, g, gOK, w, wOK)
	}
}

// boundFabrics are the fabrics of the goal-directed search's test. The last
// one has distances that are not whole numbers, so that a path's cost summed
// from its source and the lower bound summed from the destination differ in
// the last bits: the case the bound's slack is for.
func boundFabrics(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	for _, k := range []int{4, 8} {
		ft, err := NewFatTree(FatTreeConfig{Pods: k})
		if err != nil {
			t.Fatal(err)
		}
		bc, err := NewBCube(BCubeConfig{SwitchesPerLevel: k})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("fat-tree-%d", k)], out[fmt.Sprintf("bcube-%d", k)] = ft.Graph, bc.Graph
	}
	ls, err := NewLeafSpine(LeafSpineConfig{Leaves: 16, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	out["leaf-spine-16"] = ls.Graph
	frac, err := NewFatTree(FatTreeConfig{Pods: 4, EdgeDistance: 0.1, CoreDistance: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	out["fat-tree-4-frac"] = frac.Graph
	return out
}

// TestBoundedSweepRowToEqualsFullRow holds the goal-directed search to the
// full row the way TestSweepRowToEqualsFullRow holds the stopped one. The
// weights are the traffic plane's metric, Distance·(1 + 0.1·u), under three
// loads: none (every cost ties — what the tie rule exists for), random
// below capacity, and overloaded (u up to 3); the lower bound is the static
// Distance table from every rack, as flow.Network keeps it. For every rack
// pair, with no switch masked, one masked (every edge into it Inf), and
// every neighbour of one rack masked (which cuts that rack off): reached,
// Dist, Path and PathEdges are those of the full row, and a destination
// that is not reached leaves the full row in every entry. A destination
// that is not a rack has no row in the bound and takes the plain search.
func TestBoundedSweepRowToEqualsFullRow(t *testing.T) {
	for name, g := range boundFabrics(t) {
		racks := g.Racks()
		lower := DijkstraFrom(g, racks, DistanceCost)
		for _, loads := range []string{"zero", "random", "overloaded"} {
			rng := rand.New(rand.NewSource(21))
			u := make([]float64, g.NumEdges())
			for id := range u {
				switch loads {
				case "random":
					u[id] = rng.Float64()
				case "overloaded":
					u[id] = 3 * rng.Float64()
				}
			}
			hot := g.Switches()[rng.Intn(len(g.Switches()))]
			cutOff := racks[rng.Intn(len(racks))]
			for _, mask := range []string{"none", "switch", "cut"} {
				label := name + "/" + loads + "/" + mask
				masked := map[int]bool{}
				switch mask {
				case "switch":
					masked[hot] = true
				case "cut":
					for _, v := range neighbors(g, cutOff) {
						masked[v] = true
					}
				}
				cost := func(e Edge) float64 {
					if masked[e.To] {
						return Inf
					}
					return e.Distance * (1 + 0.1*u[e.ID])
				}
				full := DijkstraFrom(g, racks, cost)
				ms := &MultiSource{}
				ms.Reset(g, racks)
				ms.Reweigh(cost)
				unreached := 0
				dsts := g.Racks()
				for _, sw := range g.Switches() {
					if !masked[sw] && len(dsts) < len(racks)+2 {
						dsts = append(dsts, sw) // not racks: the search falls back
					}
				}
				for row, src := range racks {
					for _, dst := range dsts {
						reached := ms.SweepRowTo(row, dst, lower)
						if want := full.Dist(src, dst) < Inf; reached != want {
							t.Fatalf("%s: SweepRowTo(%d,%d) = %v, full row reaches it: %v", label, src, dst, reached, want)
						}
						if got, want := ms.Dist(src, dst), full.Dist(src, dst); got != want {
							t.Fatalf("%s: Dist(%d,%d) = %v, full row %v", label, src, dst, got, want)
						}
						samePath(t, label, ms, full, src, dst)
						if !reached {
							unreached++
							if !slices.Equal(ms.row(src), full.row(src)) {
								t.Fatalf("%s: search from %d never met %d yet its row is not the full row", label, src, dst)
							}
						}
					}
				}
				if (mask == "cut") != (unreached > 0) {
					t.Fatalf("%s: %d unreached destinations", label, unreached)
				}
				// The bound must have been at work, not merely harmless.
				searches, settled := ms.SearchStats()
				if mask == "none" && settled*2 > searches*g.NumNodes() {
					t.Fatalf("%s: %d searches settled %d nodes of %d each: the bound prunes nothing", label, searches, settled, g.NumNodes())
				}
			}
		}
	}
}

// TestStoppedSweepToEqualsFull is the same argument for the point-to-point
// loop on its own, under random blocks priced into the weights: for each
// source, three random edges cost Inf, and so does every edge into three
// random nodes. "free" puts a zero-weight link under it, the case the
// loop's settled guard on parent steals is for.
func TestStoppedSweepToEqualsFull(t *testing.T) {
	for name, g := range stopFabrics(t) {
		for _, regime := range []string{"ties", "spread", "free"} {
			rng := rand.New(rand.NewSource(7))
			c := g.ensureCSR()
			n, m := g.NumNodes(), len(c.dstID)
			base := stopWeights(rng, g, regime)
			var st, ref sweepScratch
			st.ensure(n, m)
			ref.ensure(n, m)
			w, minIn := make([]wEdge, m), make([]float64, n)
			tree, fullRow := make([]treeNode, n), make([]treeNode, n)
			edgeBlocked, nodeBlocked := make([]bool, m), make([]bool, n)
			blocked := func(e Edge) float64 {
				if edgeBlocked[e.ID] || nodeBlocked[e.To] {
					return Inf
				}
				return base(e)
			}
			for src := 0; src < n; src++ {
				clear(edgeBlocked)
				clear(nodeBlocked)
				for k := 0; k < 3; k++ {
					if v := rng.Intn(n); v != src {
						nodeBlocked[v] = true
					}
					edgeBlocked[rng.Intn(m)] = true
				}
				c.fillWeights(w, minIn, blocked)
				ref.sweepTo(c, int32(src), -1, w, fullRow, nil, 0)
				for dst := 0; dst < n; dst++ {
					st.sweepTo(c, int32(src), int32(dst), w, tree, nil, 0)
					if tree[dst].d != fullRow[dst].d {
						t.Fatalf("%s/%s: stopped dist %d→%d = %v, full %v", name, regime, src, dst, tree[dst].d, fullRow[dst].d)
					}
					for v := dst; v != src && fullRow[v].p >= 0; v = int(fullRow[v].p) {
						if tree[v] != fullRow[v] {
							t.Fatalf("%s/%s: stopped sweep %d→%d differs from the full one at node %d", name, regime, src, dst, v)
						}
					}
					if fullRow[dst].d == Inf && !slices.Equal(tree, fullRow) {
						t.Fatalf("%s/%s: sweep from %d never met %d yet its row is not the full row", name, regime, src, dst)
					}
				}
				st.sweepTo(c, int32(src), -1, w, tree, nil, 0)
				if !slices.Equal(tree, fullRow) {
					t.Fatalf("%s/%s: full sweep from %d after stopped ones differs from a clean one", name, regime, src)
				}
			}
		}
	}
}

// TestShortestPathAvoidingNodes: a search avoids a node when every edge
// into it is priced Inf. On the diamond a → {b, c} → d, whose cheap middle
// is b, avoiding b detours through c, and avoiding both middles leaves d
// unreachable.
func TestShortestPathAvoidingNodes(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Switch, "b", 0, 1)
	c := g.AddNode(Switch, "c", 0, 1)
	d := g.AddNode(Rack, "d", 0, 0)
	for _, l := range []struct {
		from, to int
		dist     float64
	}{{a, b, 1}, {b, d, 1}, {a, c, 2}, {c, d, 2}} {
		if err := g.AddLink(l.from, l.to, 1, l.dist); err != nil {
			t.Fatal(err)
		}
	}
	ms := &MultiSource{}
	ms.Reset(g, []int{a})
	for _, tc := range []struct {
		avoid, want []int
		dist        float64
	}{
		{nil, []int{a, b, d}, 2},
		{[]int{b}, []int{a, c, d}, 4},
		{[]int{b, c}, nil, Inf},
	} {
		ms.Reweigh(func(e Edge) float64 {
			if slices.Contains(tc.avoid, e.To) {
				return Inf
			}
			return e.Distance
		})
		reached := ms.SweepRowTo(0, d, nil)
		if got := ms.Path(a, d, nil); reached != (tc.want != nil) || !slices.Equal(got, tc.want) || ms.Dist(a, d) != tc.dist {
			t.Fatalf("avoiding %v: path %v at %v (reached %v), want %v at %v", tc.avoid, got, ms.Dist(a, d), reached, tc.want, tc.dist)
		}
	}
}

// untilCase is one graph and weight regime of the target-stop test, with
// the targets its rows must always wait for on top of the random ones.
type untilCase struct {
	label   string
	g       *Graph
	cost    EdgeCost
	special []int32
}

// neighbors lists the nodes g links id to, in adjacency order.
func neighbors(g *Graph, id int) []int {
	var out []int
	for _, e := range g.Edges(id) {
		out = append(out, e.To)
	}
	return out
}

// untilCases are the graphs of TestSweepRowOnTargetsEqualFullRow: the
// stop-rule fabrics under equal-weight ties and under ties with every edge
// into one node priced Inf (a target no finite edge enters), and the
// random graphs of TestSweepMatchesReferenceAcrossBinades (keys from
// subnormal to 1e150, Inf edges), each with one node walled off: every edge
// into its neighbours, save its own, costs Inf, so it stays unreachable
// although the edges into it are finite; and small random graphs priced in
// decimals such as 0.1 and 0.7, whose sums round, the case the bound's
// slack is for.
func untilCases(t *testing.T) []untilCase {
	t.Helper()
	var out []untilCase
	fabrics := stopFabrics(t)
	for _, name := range []string{"fat-tree", "bcube", "leaf-spine", "bcube-8"} {
		g := fabrics[name]
		for _, regime := range []string{"ties", "cut"} {
			rng := rand.New(rand.NewSource(43))
			cost := stopWeights(rng, g, regime)
			var special []int32 // the nodes no finite edge enters
			for v := 0; v < g.NumNodes(); v++ {
				if !slices.ContainsFunc(neighbors(g, v), func(u int) bool {
					e, _ := g.EdgeBetween(u, v)
					return cost(e) < Inf
				}) {
					special = append(special, int32(v))
				}
			}
			if (regime == "cut") != (len(special) > 0) {
				t.Fatalf("%s/%s: %d nodes no finite edge enters", name, regime, len(special))
			}
			out = append(out, untilCase{name + "/" + regime, g, cost, special})
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(430 + seed))
		g, base := binadeGraph(rng, 30+rng.Intn(30))
		walled := rng.Intn(g.NumNodes())
		guard := map[int]bool{}
		for _, v := range neighbors(g, walled) {
			guard[v] = true
		}
		cost := func(e Edge) float64 {
			if guard[e.To] && e.From != walled {
				return Inf
			}
			return base(e)
		}
		out = append(out, untilCase{fmt.Sprintf("binades-%d", seed), g, cost, []int32{int32(walled)}})
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(450 + seed))
		g := randomEquivGraph(rng, 12+rng.Intn(20))
		w := make([]float64, g.NumEdges())
		for id := range w {
			w[id] = []float64{0.1, 0.2, 0.3, 0.35, 0.6, 0.7, 1.1}[rng.Intn(7)]
		}
		cost := func(e Edge) float64 { return w[e.ID] }
		out = append(out, untilCase{fmt.Sprintf("decimals-%d", seed), g, cost, nil})
	}
	return out
}

// TestSweepRowOnTargetsEqualFullRow holds the two stops of a sweep
// with targets (all targets settled, or all their neighbours settled and
// relaxed) and its push bound to the full row: from every source, with 1–6
// random targets, plus the case's special ones from every other source,
// Dist (as bits), Path and PathEdges of every target are the full row's.
// Each case runs twice: after Reweigh, and after ReweighEdges has cut some
// weights tenfold and tripled others, so that the cheapest weight into a
// node is only a lower bound. All rows share one scratch with full sweeps
// in between, so no mark survives a sweep. The stops must be at work: the
// stopped rows settle fewer nodes than full ones.
func TestSweepRowOnTargetsEqualFullRow(t *testing.T) {
	shared := &sweepScratch{}
	for _, tc := range untilCases(t) {
		g, n := tc.g, tc.g.NumNodes()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		rng := rand.New(rand.NewSource(44))
		scale := make([]float64, g.NumEdges())
		for i := range scale {
			scale[i] = 1
		}
		cost := func(e Edge) float64 { return tc.cost(e) * scale[e.ID] }
		ms := &MultiSource{scratch: shared}
		ms.Reset(g, all)
		ms.Reweigh(cost)
		for _, pass := range []string{"reweigh", "reweigh-edges"} {
			if pass == "reweigh-edges" {
				var ids []int
				for k := 0; k < g.NumEdges()/4; k++ {
					id := rng.Intn(g.NumEdges())
					if tc.cost(g.EdgeAt(id)) < 1e-300 {
						continue // a tenth of a subnormal is zero
					}
					scale[id] = []float64{0.1, 3}[rng.Intn(2)]
					ids = append(ids, id)
				}
				ms.ReweighEdges(ids, cost)
			}
			if !ms.PositiveWeights() {
				t.Fatalf("%s: a weight is not above zero", tc.label)
			}
			label := tc.label + "/" + pass
			full := DijkstraFrom(g, all, cost)
			settled := 0
			for src := 0; src < n; src++ {
				var targets []int32
				if src%2 == 0 {
					targets = slices.Clone(tc.special)
				}
				for k := rng.Intn(6); k >= 0; k-- {
					targets = append(targets, int32(rng.Intn(n)))
				}
				before := ms.SweptNodes()
				ms.SweepRowOn(0, src, targets)
				settled += ms.SweptNodes() - before
				for _, dst := range targets {
					got, want := ms.Dist(src, int(dst)), full.Dist(src, int(dst))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: Dist(%d,%d) = %v, full row %v", label, src, dst, got, want)
					}
					samePath(t, label, ms, full, src, int(dst))
				}
				if src%7 == 0 {
					ms.SweepRows([]int{src})
					if !slices.Equal(ms.row(src), full.row(src)) {
						t.Fatalf("%s: full sweep from %d after a stopped one differs from a clean full sweep", label, src)
					}
				}
			}
			if settled >= n*n {
				t.Fatalf("%s: %d stopped rows settled %d nodes: no row stopped early", label, n, settled)
			}
		}
	}
}

// TestWeighFromEqualsMaskedReweigh: a vector copied from another table's
// with some nodes blocked is, bit for bit, the vector Reweigh fills with
// that table's cost masked to Inf on every edge into a blocked node — the
// weights and the cheapest weight into each node — on every fabric and
// weight regime, with blocks that repeat or fall outside the graph. The
// copy allocates nothing.
func TestWeighFromEqualsMaskedReweigh(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for name, g := range stopFabrics(t) {
		racks := g.RackNodes()
		for _, regime := range []string{"ties", "spread", "free"} {
			cost := stopWeights(rng, g, regime)
			src := &MultiSource{}
			src.Reset(g, racks)
			src.Reweigh(cost)
			for trial := 0; trial < 8; trial++ {
				var block []int
				for i := rng.Intn(4); i > 0; i-- {
					block = append(block, rng.Intn(g.NumNodes()))
				}
				if trial%2 == 1 && len(block) > 0 {
					block = append(block, block[0], -1, g.NumNodes())
				}
				blocked := make(map[int]bool)
				for _, v := range block {
					blocked[v] = true
				}
				want := &MultiSource{}
				want.Reset(g, racks[:1])
				want.Reweigh(func(e Edge) float64 {
					if blocked[e.To] {
						return Inf
					}
					return cost(e)
				})
				got := &MultiSource{}
				got.Reset(g, racks[:1])
				got.WeighFrom(src, block...)
				label := fmt.Sprintf("%s/%s block %v", name, regime, block)
				for i := range want.weights {
					if w, x := want.weights[i], got.weights[i]; w.v != x.v || math.Float64bits(w.w) != math.Float64bits(x.w) {
						t.Fatalf("%s: weight %d = %+v, masked fill %+v", label, i, x, w)
					}
				}
				for v := range want.minIn {
					if math.Float64bits(got.minIn[v]) != math.Float64bits(want.minIn[v]) {
						t.Fatalf("%s: cheapest weight into %d = %v, masked fill %v", label, v, got.minIn[v], want.minIn[v])
					}
				}
				// Positivity is the source's: a zero weight the mask priced
				// Inf may leave it false where the fill finds every weight
				// above zero, never the other way.
				if got.PositiveWeights() != src.PositiveWeights() || got.PositiveWeights() && !want.PositiveWeights() {
					t.Fatalf("%s: positive %v, source %v, masked fill %v", label, got.PositiveWeights(), src.PositiveWeights(), want.PositiveWeights())
				}
				alloctest.Count(t, "weigh-from", func() { got.WeighFrom(src, block...) })
			}
		}
	}
}

// TestPathWritesIntoBuffer: Path writes over buf[:0] when buf has the room,
// allocating nothing, and otherwise returns a slice of exactly the path's
// length; its nodes never depend on the buffer.
func TestPathWritesIntoBuffer(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	racks := ft.Racks()
	ms := DijkstraFrom(ft.Graph, racks, DistanceCost)
	a, b := racks[0], racks[len(racks)-1]
	want := ms.Path(a, b, nil)
	if len(want) != 5 || cap(want) != len(want) {
		t.Fatalf("Path with no buffer = %v (cap %d), want a 5-node slice of its own length", want, cap(want))
	}
	buf := []int{-7, -7, -7, -7, -7, -7, -7, -7}
	if got := ms.Path(a, b, buf); !slices.Equal(got, want) || &got[0] != &buf[0] {
		t.Fatalf("Path into a roomy buffer = %v, not %v written over the buffer", got, want)
	}
	if got := ms.Path(a, b, buf[:0:2]); !slices.Equal(got, want) || cap(got) != len(want) || &got[0] == &buf[0] {
		t.Fatalf("Path into a short buffer = %v (cap %d), want a fresh %v", got, cap(got), want)
	}
	if got := ms.Path(a, a, buf); !slices.Equal(got, []int{a}) || &got[0] != &buf[0] {
		t.Fatalf("Path(a, a) into a buffer = %v, want [%d] written over it", got, a)
	}
	alloctest.Count(t, "path", func() { ms.Path(a, b, buf) })
}
