package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sheriff/internal/alloctest"
)

// Pending rows: MarkSources leaves the named rows for whoever claims them
// first, SweepPending on its own sweeper or a query that reads the row.
// Whoever it is, the row must come out as RefreshSources sweeps it.

// TestPendingRowsMatchSerialRefresh races two readers and sweepers - 1
// SweepPending calls over the rows MarkSources left pending, round after
// round of link degradations, and holds every named row to the row a
// serial RefreshSources sweeps on a twin fabric: distance bits and path at
// every rack the row answers for (its region's, or every rack for a full
// row). The rows swept, ahead and on demand, and the nodes their sweeps
// settled must total the same too. Run it under -race.
func TestPendingRowsMatchSerialRefresh(t *testing.T) {
	for _, fabric := range []string{"fattree8", "bcube4"} {
		for _, sweepers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/sweepers=%d", fabric, sweepers), func(t *testing.T) {
				checkPendingRows(t, fabric, sweepers)
			})
		}
	}
}

func checkPendingRows(t *testing.T, fabric string, sweepers int) {
	serial := newTwinOn(t, regionalFabric(t, fabric), PaperParams(), true)
	raced := newTwinOn(t, regionalFabric(t, fabric), PaperParams(), true)
	racks := raced.c.Racks
	rng := rand.New(rand.NewSource(int64(41 + sweepers)))
	for round, hops := range []int{1, 3, -1, 1, 3, 1, -1, 1} {
		patch(rng, 20, serial, raced)
		picked := rng.Perm(len(racks))[:1+rng.Intn(len(racks))]
		nodes := make([]int, len(picked))
		for k, i := range picked {
			nodes[k] = racks[i].NodeID
		}
		serial.m.RefreshSources(nodes, hops)
		raced.m.MarkSources(nodes, hops, sweepers)

		// The targets each named row answers for, read off the raced
		// model before the round, while nothing runs beside it.
		targets := make([][]int, len(nodes))
		for k, node := range nodes {
			targets[k] = rowTargets(raced.m, node)
		}
		var wg sync.WaitGroup
		for s := 1; s < sweepers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				raced.m.SweepPending(s)
			}()
		}
		read := func(order []int) {
			defer wg.Done()
			for _, k := range order {
				for _, dst := range targets[k] {
					raced.m.RackPairCost(raced.c.RackByNode(nodes[k]), raced.c.RackByNode(dst))
				}
			}
		}
		inOrder := make([]int, len(nodes))
		for k := range inOrder {
			inOrder[k] = k
		}
		wg.Add(2)
		go read(rng.Perm(len(nodes)))
		read(inOrder)
		wg.Wait()

		for k, node := range nodes {
			for _, dst := range targets[k] {
				sd, rd := serial.m.trans.Dist(node, dst), raced.m.trans.Dist(node, dst)
				if math.Float64bits(sd) != math.Float64bits(rd) {
					t.Fatalf("round %d (hops %d): row of node %d at %d: distance %v, serial sweep %v", round, hops, node, dst, rd, sd)
				}
				if sp, rp := serial.m.trans.Path(node, dst, nil), raced.m.trans.Path(node, dst, nil); !slices.Equal(sp, rp) {
					t.Fatalf("round %d (hops %d): row of node %d at %d: path %v, serial sweep %v", round, hops, node, dst, rp, sp)
				}
			}
		}
	}
	sp, so := serial.m.SweepCounts()
	rp, ro := raced.m.SweepCounts()
	if sp != rp || so != ro {
		t.Fatalf("raced rows swept %d ahead and %d on demand, serial %d and %d", rp, ro, sp, so)
	}
	if s, r := serial.m.trans.SweptNodes(), raced.m.trans.SweptNodes(); s != r {
		t.Fatalf("raced sweeps settled %d nodes, serial %d", r, s)
	}
}

// rowTargets lists the rack nodes the row of the rack node answers for
// after the last refresh: its region's when the refresh named it
// regionally, every rack's when in full.
func rowTargets(m *Model, node int) []int {
	targets := m.targets(m.trans.Row(node))
	if len(targets) == 0 {
		return m.cluster.Graph.RackNodes()
	}
	out := make([]int, len(targets))
	for i, v := range targets {
		out[i] = int(v)
	}
	return out
}

// TestSweepPendingLeavesNoRowPending: SweepPending alone, with no query
// beside it, sweeps every named row, and a query after it sweeps none.
func TestSweepPendingLeavesNoRowPending(t *testing.T) {
	tw := newTwinOn(t, regionalFabric(t, "fattree4"), PaperParams(), true)
	nodes := tw.c.Graph.RackNodes()
	tw.m.MarkSources(nodes, 1, 2)
	before := tw.m.trans.SweptNodes()
	tw.m.SweepPending(1)
	if tw.m.trans.SweptNodes() == before {
		t.Fatal("SweepPending swept nothing")
	}
	for _, node := range nodes {
		if s := tw.m.swept[tw.m.trans.Row(node)].Load(); s&3 < rowRegional {
			t.Fatalf("row of node %d left in state %d", node, s&3)
		}
	}
	settled := tw.m.trans.SweptNodes()
	tw.m.RackPairCost(tw.c.Racks[0], tw.c.Racks[1])
	if _, onDemand := tw.m.SweepCounts(); onDemand != 0 || tw.m.trans.SweptNodes() != settled {
		t.Fatalf("a query in the region swept again: %d on demand", onDemand)
	}
}

// TestMarkSourcesSteadyStateAllocs: a warm round of MarkSources, a
// SweepPending call on a second sweeper and the queries claiming the rows
// it left allocates nothing, as RefreshSources does not.
func TestMarkSourcesSteadyStateAllocs(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	all := c.Graph.Racks()
	half := all[:len(all)/2]
	a, b := c.Racks[0], c.Racks[1]
	m.MarkSources(all, 1, 2) // grow the sweepers and every region
	m.SweepPending(1)
	var sink float64
	alloctest.Count(t, "round", func() {
		m.MarkSources(all, 1, 2)
		m.SweepPending(1)
		m.MarkSources(half, 1, 2)
		sink += m.RackPairCost(a, b) // claims and sweeps rack a's row
		m.SweepPending(1)
	})
	_ = sink
}
