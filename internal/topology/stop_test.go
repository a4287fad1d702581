package topology

import (
	"math/rand"
	"slices"
	"testing"
)

// stopFabrics are the fabrics of the stop-rule tests: the three small ones,
// and a BCube(8) wide enough that "spread" weights keep more than
// maxLevels distinct distances pending and spill into the heap.
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
// values and one free link, so equal-cost paths and zero-weight steps
// abound and the whole sweep stays inside the bucket window; "spread"
// draws the load-aware metric under random loads, whose many distinct
// distances overflow the window into the heap; "cut" is "ties" with every
// edge into one node priced Inf, which leaves that node unreachable.
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
	free := rng.Intn(len(w))
	w[free], w[ReverseEdge(free)] = 0, 0
	cut := -1
	if regime == "cut" {
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
// point-to-point queries of the traffic plane: for every (src, dst) the
// stopped row answers Path, PathEdges and Dist for dst exactly as the full
// row does; a destination that is not reached leaves the full row in every
// entry; and an early exit leaves the scratch (bucket window, heap, settled
// epoch) fit for whatever sweep comes next — stopped and full sweeps
// interleave on one scratch throughout.
func TestSweepRowToEqualsFullRow(t *testing.T) {
	for name, g := range stopFabrics(t) {
		for _, regime := range []string{"ties", "spread", "cut"} {
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
			unreached := 0
			for src := 0; src < n; src++ {
				fullRow := full.row(src)
				for dst := 0; dst < n; dst++ {
					reached := ms.SweepRowTo(src, dst)
					if want := full.Dist(src, dst) < Inf; reached != want {
						t.Fatalf("%s/%s: SweepRowTo(%d,%d) = %v, full row reaches it: %v", name, regime, src, dst, reached, want)
					}
					if got, want := ms.Dist(src, dst), full.Dist(src, dst); got != want {
						t.Fatalf("%s/%s: stopped Dist(%d,%d) = %v, full %v", name, regime, src, dst, got, want)
					}
					if got, want := ms.Path(src, dst), full.Path(src, dst); !slices.Equal(got, want) {
						t.Fatalf("%s/%s: stopped Path(%d,%d) = %v, full %v", name, regime, src, dst, got, want)
					}
					got, gotOK := ms.PathEdges(src, dst, nil)
					want, wantOK := full.PathEdges(src, dst, nil)
					if gotOK != wantOK || !slices.Equal(got, want) {
						t.Fatalf("%s/%s: stopped PathEdges(%d,%d) = %v %v, full %v %v", name, regime, src, dst, got, gotOK, want, wantOK)
					}
					if !reached {
						unreached++
						if !slices.Equal(ms.row(src), fullRow) {
							t.Fatalf("%s/%s: sweep from %d never met %d yet its row is not the full row", name, regime, src, dst)
						}
					}
					if dst%5 == 0 { // a full sweep right after an early exit
						ms.SweepRows([]int{src})
						if !slices.Equal(ms.row(src), fullRow) {
							t.Fatalf("%s/%s: full sweep from %d after a stopped one differs from a clean full sweep", name, regime, src)
						}
					}
				}
			}
			if (regime == "cut") != (unreached > 0) {
				t.Fatalf("%s/%s: %d unreached destinations", name, regime, unreached)
			}
		}
	}
}

// TestStoppedMaskedSweepEqualsFull is the same argument for the masked
// sweep behind Yen's spur searches and ShortestPathAvoidingNodes, under
// random node and edge blocks.
func TestStoppedMaskedSweepEqualsFull(t *testing.T) {
	for name, g := range stopFabrics(t) {
		for _, regime := range []string{"ties", "spread"} {
			rng := rand.New(rand.NewSource(7))
			c := g.ensureCSR()
			n, m := g.NumNodes(), len(c.dstID)
			var st, ref kspScratch
			st.prepare(c, stopWeights(rng, g, regime))
			ref.ensure(n, m)
			fullRow := make([]treeNode, n)
			for src := 0; src < n; src++ {
				mep, rep := st.nextMaskEpoch(), ref.nextMaskEpoch()
				for k := 0; k < 3; k++ {
					if v := rng.Intn(n); v != src {
						st.nodeMask[v], ref.nodeMask[v] = mep, rep
					}
					e := rng.Intn(m)
					st.edgeMask[e], ref.edgeMask[e] = mep, rep
				}
				ref.sweepMasked(c, int32(src), -1, st.weights, fullRow)
				for dst := 0; dst < n; dst++ {
					st.sweepMasked(c, int32(src), int32(dst), st.weights, st.tree)
					if st.tree[dst].d != fullRow[dst].d {
						t.Fatalf("%s/%s: stopped masked dist %d→%d = %v, full %v", name, regime, src, dst, st.tree[dst].d, fullRow[dst].d)
					}
					for v := dst; v != src && fullRow[v].p >= 0; v = int(fullRow[v].p) {
						if st.tree[v] != fullRow[v] {
							t.Fatalf("%s/%s: stopped masked sweep %d→%d differs from the full one at node %d", name, regime, src, dst, v)
						}
					}
					if fullRow[dst].d == Inf && !slices.Equal(st.tree, fullRow) {
						t.Fatalf("%s/%s: masked sweep from %d never met %d yet its row is not the full row", name, regime, src, dst)
					}
				}
				st.sweepMasked(c, int32(src), -1, st.weights, st.tree)
				if !slices.Equal(st.tree, fullRow) {
					t.Fatalf("%s/%s: full masked sweep from %d after stopped ones differs from a clean one", name, regime, src)
				}
			}
		}
	}
}
