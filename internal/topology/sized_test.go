package topology

import (
	"fmt"
	"slices"
	"testing"

	"sheriff/internal/alloctest"
)

// The constructors as they were before they built at final size: every
// node through AddNode with a formatted name, every link through AddLink,
// each row grown by append. The sized constructors must build the same
// graph.

func handFatTree(k int) *Graph {
	cfg := FatTreeConfig{Pods: k}.withDefaults()
	half := k / 2
	g := NewGraph()
	core := make([][]int, half)
	for grp := range core {
		core[grp] = make([]int, half)
		for i := range core[grp] {
			core[grp][i] = g.AddNode(Switch, fmt.Sprintf("core-%d-%d", grp, i), -1, 2)
		}
	}
	for pod := 0; pod < k; pod++ {
		agg, tor := make([]int, half), make([]int, half)
		for j := range agg {
			agg[j] = g.AddNode(Switch, fmt.Sprintf("agg-%d-%d", pod, j), pod, 1)
		}
		for i := range tor {
			tor[i] = g.AddNode(Rack, fmt.Sprintf("tor-%d-%d", pod, i), pod, 0)
		}
		for i := range tor {
			for j := range agg {
				mustLink(g, tor[i], agg[j], fatTreeEdgeCapacity, cfg.EdgeDistance)
			}
		}
		for j := range agg {
			for i := 0; i < half; i++ {
				mustLink(g, agg[j], core[j][i], fatTreeCoreCapacity, cfg.CoreDistance)
			}
		}
	}
	return g
}

func handBCube(n int) *Graph {
	g := NewGraph()
	l0, l1 := make([]int, n), make([]int, n)
	for i := range l0 {
		l0[i] = g.AddNode(Switch, fmt.Sprintf("l0-%d", i), i, 0)
	}
	for j := range l1 {
		l1[j] = g.AddNode(Switch, fmt.Sprintf("l1-%d", j), -1, 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			id := g.AddNode(Rack, fmt.Sprintf("srv-%d-%d", i, j), i, 0)
			mustLink(g, id, l0[i], bcubeLevel0Capacity, bcubeLevel0Distance)
			mustLink(g, id, l1[j], bcubeLevel1Capacity, bcubeLevel1Distance)
		}
	}
	return g
}

func handLeafSpine(leaves int) *Graph {
	cfg := LeafSpineConfig{Leaves: leaves}.withDefaults()
	g := NewGraph()
	spines := make([]int, cfg.Spines)
	for i := range spines {
		spines[i] = g.AddNode(Switch, fmt.Sprintf("spine-%d", i), -1, 1)
	}
	for i := 0; i < leaves; i++ {
		id := g.AddNode(Rack, fmt.Sprintf("leaf-%d", i), i, 0)
		for _, sp := range spines {
			mustLink(g, id, sp, leafSpineCapacity, leafSpineDistance)
		}
	}
	return g
}

func mustLink(g *Graph, a, b int, capacity, distance float64) {
	if err := g.AddLink(a, b, capacity, distance); err != nil {
		panic(err)
	}
}

// sizedFabric is a constructor's graph and the one the same calls build
// through AddNode and AddLink.
type sizedFabric struct {
	name      string
	got, want *Graph
}

// sizedFabrics builds each constructor at two sizes, each beside its
// hand-built twin.
func sizedFabrics(t *testing.T) []sizedFabric {
	t.Helper()
	var out []sizedFabric
	for _, k := range []int{4, 16} {
		ft, err := NewFatTree(FatTreeConfig{Pods: k})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sizedFabric{name: fmt.Sprintf("fat-tree-%d", k), got: ft.Graph, want: handFatTree(k)})
	}
	for _, n := range []int{4, 8} {
		b, err := NewBCube(BCubeConfig{SwitchesPerLevel: n})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sizedFabric{name: fmt.Sprintf("bcube-%d", n), got: b.Graph, want: handBCube(n)})
	}
	for _, l := range []int{10, 1000} {
		ls, err := NewLeafSpine(LeafSpineConfig{Leaves: l})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sizedFabric{name: fmt.Sprintf("leaf-spine-%d", l), got: ls.Graph, want: handLeafSpine(l)})
	}
	return out
}

// TestSizedConstructorsMatchHandBuilt: a fabric built at its final size is
// the graph AddNode and AddLink build in the same order — every node's
// name, kind, pod and level, every node's edges in order, every edge by
// ID, the kind lists and the CSR rows.
func TestSizedConstructorsMatchHandBuilt(t *testing.T) {
	for _, f := range sizedFabrics(t) {
		got, want := f.got, f.want
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: %d nodes, %d edges; hand-built %d, %d", f.name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for id := 0; id < want.NumNodes(); id++ {
			if g, w := got.Node(id), want.Node(id); g != w {
				t.Fatalf("%s: node %d = %+v, hand-built %+v", f.name, id, g, w)
			}
			if g, w := got.Edges(id), want.Edges(id); !slices.Equal(g, w) {
				t.Fatalf("%s: node %d edges %v, hand-built %v", f.name, id, g, w)
			}
		}
		for id := 0; id < want.NumEdges(); id++ {
			if g, w := got.EdgeAt(id), want.EdgeAt(id); g != w {
				t.Fatalf("%s: EdgeAt(%d) = %+v, hand-built %+v", f.name, id, g, w)
			}
		}
		if !slices.Equal(got.RackNodes(), want.RackNodes()) || !slices.Equal(got.SwitchNodes(), want.SwitchNodes()) {
			t.Fatalf("%s: kind lists differ from the hand-built graph's", f.name)
		}
		gc, wc := got.ensureCSR(), want.ensureCSR()
		if !slices.Equal(gc.rowStart, wc.rowStart) || !slices.Equal(gc.dstID, wc.dstID) || !slices.Equal(gc.edgeID, wc.edgeID) ||
			!slices.Equal(gc.capacity, wc.capacity) || !slices.Equal(gc.distance, wc.distance) || !slices.Equal(gc.bandwidth, wc.bandwidth) {
			t.Fatalf("%s: CSR rows differ from the hand-built graph's", f.name)
		}
		// A row is carved at its node's final degree: a link added by hand
		// afterwards grows that row alone.
		a, b := 0, got.NumNodes()-1
		before := slices.Clone(got.Edges(a + 1))
		mustLink(got, a, b, 1, 1)
		if !slices.Equal(got.Edges(a+1), before) || got.EdgeAt(got.NumEdges()-2).To != b || got.EdgeAt(got.NumEdges()-1).To != a {
			t.Fatalf("%s: a link added after construction wrote outside its own rows", f.name)
		}
	}
}

// TestTopologyBuildAllocsFlat: each constructor makes the same number of
// allocations at both its sizes — one per element kind, none per node,
// link or name.
func TestTopologyBuildAllocsFlat(t *testing.T) {
	builders := []struct {
		name  string
		build func(size int) error
		sizes [2]int
	}{
		{"fat-tree", func(k int) error { _, err := NewFatTree(FatTreeConfig{Pods: k}); return err }, [2]int{4, 16}},
		{"bcube", func(n int) error { _, err := NewBCube(BCubeConfig{SwitchesPerLevel: n}); return err }, [2]int{4, 8}},
		{"leaf-spine", func(l int) error { _, err := NewLeafSpine(LeafSpineConfig{Leaves: l}); return err }, [2]int{10, 1000}},
	}
	for _, b := range builders {
		for _, size := range b.sizes {
			alloctest.Count(t, fmt.Sprint(b.name, "-", size), func() {
				if err := b.build(size); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
