package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// Regional rows: a row RefreshSources prepares is swept only until the
// racks of its source's region, or all their neighbours, have settled,
// dropping the pushes that cannot reach one of them cheaply. For those racks it must answer with
// the bits of a full row; for any other rack it must be swept in full,
// once, on demand.

func regionalFabric(t *testing.T, name string) *dcn.Cluster {
	t.Helper()
	var g *topology.Graph
	switch name {
	case "fattree4", "fattree8":
		pods := 4
		if name == "fattree8" {
			pods = 8
		}
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
		if err != nil {
			t.Fatal(err)
		}
		g = ft.Graph
	case "bcube4":
		bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 4})
		if err != nil {
			t.Fatal(err)
		}
		g = bc.Graph
	case "leafspine10":
		ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 10})
		if err != nil {
			t.Fatal(err)
		}
		g = ls.Graph
	default:
		t.Fatalf("unknown fabric %q", name)
	}
	c, err := dcn.NewCluster(g, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// vmOn returns a twin VM placed on the rack, nil when it holds none.
func (tw *twin) vmOn(rack *dcn.Rack) *dcn.VM {
	for _, vm := range tw.vms {
		if h := vm.Host(); h != nil && h.Rack() == rack {
			return vm
		}
	}
	return nil
}

// assertPairAgrees compares every query kind that reads the transmission
// rows — TransmissionCost, RackPairCost and Migration — between the two
// twins for the rack pair (i, j).
func assertPairAgrees(t *testing.T, full, reg *twin, i, j int, label string) {
	t.Helper()
	fa, fb := full.c.Racks[i], full.c.Racks[j]
	ra, rb := reg.c.Racks[i], reg.c.Racks[j]
	if f, r := full.m.RackPairCost(fa, fb), reg.m.RackPairCost(ra, rb); !sameFloat(f, r) {
		t.Fatalf("%s: RackPairCost(%d,%d) = %v, full row %v", label, i, j, r, f)
	}
	ft, fe := full.m.TransmissionCost(fa, fb, 17)
	rt, re := reg.m.TransmissionCost(ra, rb, 17)
	if (fe == nil) != (re == nil) || ft != rt {
		t.Fatalf("%s: TransmissionCost(%d,%d) = %v/%v, full row %v/%v", label, i, j, rt, re, ft, fe)
	}
	fv, rv := full.vmOn(fa), reg.vmOn(ra)
	if fv == nil {
		return
	}
	fm, fe := full.m.Migration(fv, fb.Hosts[0])
	rm, re := reg.m.Migration(rv, rb.Hosts[0])
	if (fe == nil) != (re == nil) || fm != rm {
		t.Fatalf("%s: Migration(vm %d → rack %d) = %v/%v, full row %v/%v", label, fv.ID, j, rm, re, fm, fe)
	}
}

func TestRegionalRowsMatchFullRows(t *testing.T) {
	for _, fc := range []struct {
		fabric  string
		patches int // links degraded per round; 0 keeps every tie
		seed    int64
	}{
		{"fattree4", 12, 31},
		{"fattree8", 60, 32},
		{"bcube4", 20, 33},
		{"fattree8", 0, 34}, // pristine: every equal-cost path ties
	} {
		for _, hops := range []int{1, 3} {
			name := fmt.Sprintf("%s/patches=%d/hops=%d", fc.fabric, fc.patches, hops)
			t.Run(name, func(t *testing.T) { checkRegionalRows(t, fc.fabric, fc.patches, fc.seed, hops) })
		}
	}
	t.Run("zero-weights", checkZeroWeightsKeepFullRows)
}

// checkRegionalRows drives a regional twin and a full-row twin through
// identical link degradations: each round the full twin refreshes every
// row in full, the regional one names a random set of sources.
func checkRegionalRows(t *testing.T, fabric string, patches int, seed int64, hops int) {
	full := newTwinOn(t, regionalFabric(t, fabric), PaperParams(), false)
	reg := newTwinOn(t, regionalFabric(t, fabric), PaperParams(), true)
	g := reg.c.Graph
	racks := len(reg.c.Racks)
	rng := rand.New(rand.NewSource(seed))
	rows, settled := 0, 0
	for round := 0; round < 12; round++ {
		patch(rng, patches, full, reg)
		full.m.Refresh()
		sources := rng.Perm(racks)[:1+rng.Intn(racks)]
		nodes := make([]int, len(sources))
		for k, r := range sources {
			nodes[k] = reg.c.Racks[r].NodeID
		}
		reg.m.ensure() // bind a deferred model's tables, so SweptNodes can be read
		prepBefore, _ := reg.m.SweepCounts()
		settledBefore := reg.m.tab.Load().trans.SweptNodes()
		reg.m.RefreshSources(nodes, hops)
		prepared, onDemand := reg.m.SweepCounts()
		if int(prepared-prepBefore) != len(sources) {
			t.Fatalf("round %d: prepared %d rows for %d sources", round, prepared-prepBefore, len(sources))
		}
		rows, settled = rows+len(sources), settled+reg.m.tab.Load().trans.SweptNodes()-settledBefore
		// Every source against every rack of its region: the bits of the
		// full row, with no sweep on demand.
		for _, r := range sources {
			for _, node := range g.RackNeighbors(reg.c.Racks[r].NodeID, hops) {
				assertPairAgrees(t, full, reg, r, reg.c.RackByNode(node).Index, "in region")
			}
		}
		if _, late := reg.m.SweepCounts(); late != onDemand {
			t.Fatalf("round %d: reads inside the regions swept %d rows on demand", round, late-onDemand)
		}
		// A read outside the region sweeps the row in full, once, and from
		// then on the row answers for every rack.
		src := sources[0]
		in := make(map[int]bool)
		for _, node := range g.RackNeighbors(reg.c.Racks[src].NodeID, hops) {
			in[reg.c.RackByNode(node).Index] = true
		}
		for j := 0; j < racks; j++ {
			if j == src || in[j] {
				continue
			}
			assertPairAgrees(t, full, reg, src, j, "out of region")
			if _, late := reg.m.SweepCounts(); late != onDemand+1 {
				t.Fatalf("round %d: out-of-region reads of row %d swept %d rows on demand, want 1", round, src, late-onDemand)
			}
		}
	}
	t.Logf("%.1f of %d nodes settled per regional row", float64(settled)/float64(rows), g.NumNodes())
	if patches == 0 && hops == 1 && settled >= rows*g.NumNodes() {
		t.Fatalf("pristine fabric: regional rows settled %d nodes for %d rows of %d: no row stopped early", settled, rows, g.NumNodes())
	}
}

// checkZeroWeightsKeepFullRows: with δ = η = 0 every usable link weighs
// zero, outside the stop's exactness argument, so RefreshSources sweeps
// the rows it names in full and no read, in region or out, sweeps one
// again.
func checkZeroWeightsKeepFullRows(t *testing.T) {
	p := PaperParams()
	p.Delta, p.Eta = 0, 0
	full := newTwinOn(t, regionalFabric(t, "fattree8"), p, false)
	reg := newTwinOn(t, regionalFabric(t, "fattree8"), p, false)
	g := reg.c.Graph
	sources := []int{0, 5, 17, len(reg.c.Racks) - 1}
	nodes := make([]int, len(sources))
	for k, r := range sources {
		nodes[k] = reg.c.Racks[r].NodeID
	}
	before := reg.m.tab.Load().trans.SweptNodes()
	reg.m.RefreshSources(nodes, 1)
	if got, want := reg.m.tab.Load().trans.SweptNodes()-before, len(sources)*g.NumNodes(); got != want {
		t.Fatalf("%d rows settled %d nodes, want every node of every row (%d): a row stopped early", len(sources), got, want)
	}
	for _, r := range sources {
		for j := range reg.c.Racks {
			assertPairAgrees(t, full, reg, r, j, "zero weights")
		}
	}
	if _, late := reg.m.SweepCounts(); late != 0 {
		t.Fatalf("%d rows swept on demand, want 0: full rows answer for every rack", late)
	}
}
