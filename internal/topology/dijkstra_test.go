package topology

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestDijkstraMatchesFloydOnFatTree(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 6})
	if err != nil {
		t.Fatal(err)
	}
	fw := FloydWarshall(ft.Graph, DistanceCost)
	racks := ft.Racks()
	ms := DijkstraFrom(ft.Graph, racks, DistanceCost)
	for _, a := range racks {
		for _, b := range racks {
			if math.Abs(ms.Dist(a, b)-fw.Dist(a, b)) > 1e-9 {
				t.Fatalf("Dijkstra %v != Floyd %v for %d->%d", ms.Dist(a, b), fw.Dist(a, b), a, b)
			}
		}
	}
}

func TestDijkstraMatchesFloydOnBCube(t *testing.T) {
	b, err := NewBCube(BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	fw := FloydWarshall(b.Graph, DistanceCost)
	racks := b.Racks()
	ms := DijkstraFrom(b.Graph, racks, DistanceCost)
	for _, x := range racks {
		for _, y := range racks {
			if math.Abs(ms.Dist(x, y)-fw.Dist(x, y)) > 1e-9 {
				t.Fatalf("mismatch %d->%d: %v vs %v", x, y, ms.Dist(x, y), fw.Dist(x, y))
			}
		}
	}
}

func TestDijkstraPathConsistency(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	racks := ft.Racks()
	ms := DijkstraFrom(ft.Graph, racks, DistanceCost)
	for _, a := range racks {
		for _, b := range racks {
			p := ms.Path(a, b, nil)
			if p == nil {
				t.Fatalf("nil path %d->%d", a, b)
			}
			if p[0] != a || p[len(p)-1] != b {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			sum := 0.0
			for i := 1; i < len(p); i++ {
				e, ok := ft.EdgeBetween(p[i-1], p[i])
				if !ok {
					t.Fatalf("path uses missing edge %d-%d", p[i-1], p[i])
				}
				sum += e.Distance
			}
			if math.Abs(sum-ms.Dist(a, b)) > 1e-9 {
				t.Fatalf("path sum %v != dist %v", sum, ms.Dist(a, b))
			}
		}
	}
}

func TestDijkstraSelfPath(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := ft.Racks()[0]
	ms := DijkstraFrom(ft.Graph, []int{r}, DistanceCost)
	if d := ms.Dist(r, r); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	if p := ms.Path(r, r, nil); len(p) != 1 || p[0] != r {
		t.Fatalf("self path = %v", p)
	}
}

func TestDijkstraNonSourceQueries(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	racks := ft.Racks()
	ms := DijkstraFrom(ft.Graph, racks[:1], DistanceCost)
	other := racks[1]
	if !math.IsInf(ms.Dist(other, racks[0]), 1) {
		t.Fatal("non-source Dist should be Inf")
	}
	if ms.Path(other, racks[0], nil) != nil {
		t.Fatal("non-source Path should be nil")
	}
	if !math.IsInf(ms.Dist(racks[0], -1), 1) {
		t.Fatal("out-of-range dst should be Inf")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Rack, "b", 1, 0)
	ms := DijkstraFrom(g, []int{a}, DistanceCost)
	if !math.IsInf(ms.Dist(a, b), 1) {
		t.Fatal("disconnected should be Inf")
	}
	if ms.Path(a, b, nil) != nil {
		t.Fatal("disconnected path should be nil")
	}
}

func TestDijkstraSkipsInfEdges(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	s := g.AddNode(Switch, "s", 0, 1)
	b := g.AddNode(Rack, "b", 0, 0)
	if err := g.AddLink(a, s, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(s, b, 1, 1); err != nil {
		t.Fatal(err)
	}
	blocked := func(e Edge) float64 {
		if e.To == b || e.From == b {
			return Inf
		}
		return e.Distance
	}
	ms := DijkstraFrom(g, []int{a}, blocked)
	if !math.IsInf(ms.Dist(a, b), 1) {
		t.Fatal("Inf-cost edge should block the path")
	}
}

// TestFreezeAndClone: a frozen table reads as the table it froze, paths
// included, and Fits a graph built alike but not one wired or weighted
// otherwise. A clone onto a graph built alike reads the same rows; its
// writes (a reweigh and sweeps at other weights) leave the frozen arrays
// as they were, and then it answers as a table swept on its own graph
// does.
func TestFreezeAndClone(t *testing.T) {
	build := func(pods int) *Graph {
		ft, err := NewFatTree(FatTreeConfig{Pods: pods})
		if err != nil {
			t.Fatal(err)
		}
		return ft.Graph
	}
	cost := func(e Edge) float64 { return 1 + e.Capacity/e.Bandwidth }
	racks := build(4).RackNodes()
	lender := DijkstraFrom(build(4), racks, cost)
	rows := slices.Clone(lender.tree)
	frozen := lender.Freeze()

	g := build(4)
	if !frozen.Fits(g) {
		t.Fatal("a frozen table does not fit a graph built alike")
	}
	if frozen.Fits(build(6)) {
		t.Fatal("a frozen table fits a graph wired otherwise")
	}
	other := build(4)
	other.SetBandwidthAt(3, other.EdgeAt(3).Capacity/2)
	if frozen.Fits(other) {
		t.Fatal("a frozen table fits a graph weighted otherwise")
	}

	cp := frozen.Clone(g)
	for _, ms := range []*MultiSource{frozen, cp} {
		for _, x := range racks {
			for _, y := range racks {
				pm, _ := ms.PathEdges(x, y, nil)
				pl, _ := lender.PathEdges(x, y, nil)
				if ms.Dist(x, y) != lender.Dist(x, y) || fmt.Sprint(pm) != fmt.Sprint(pl) {
					t.Fatalf("row %d→%d reads %v %v, the lender's %v %v", x, y, ms.Dist(x, y), pm, lender.Dist(x, y), pl)
				}
			}
		}
	}
	g.SetBandwidthAt(0, g.EdgeAt(0).Capacity/4)
	cp.Reweigh(cost)
	cp.SweepRows([]int{0, 1})
	cp.CompleteRow(2)
	fresh := DijkstraFrom(g, racks, cost)
	for _, r := range []int{0, 1, 2} {
		for _, y := range racks {
			if x := racks[r]; cp.Dist(x, y) != fresh.Dist(x, y) {
				t.Fatalf("after its writes, the clone's row %d→%d reads %v, a sweep on its graph %v", x, y, cp.Dist(x, y), fresh.Dist(x, y))
			}
		}
	}
	if !slices.Equal(frozen.tree, rows) {
		t.Fatal("a clone's writes changed the frozen rows")
	}
}
