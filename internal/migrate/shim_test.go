package migrate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/dcn"
	"sheriff/internal/placement"
)

// reportSignature renders everything a management round reports, costs by
// their bits.
func reportSignature(rep *Report) string {
	var b strings.Builder
	for _, m := range rep.Migrations {
		fmt.Fprintf(&b, "m%d:%d>%d@%x ", m.VM.ID, m.From.ID, m.To.ID, math.Float64bits(m.Cost))
	}
	fmt.Fprintf(&b, "| total %x space %d rejected %d preempted %d retried %d requeued %d | unplaced",
		math.Float64bits(rep.TotalCost), rep.SearchSpace, rep.Rejected, rep.Preemptions, rep.Retried, rep.Requeued)
	for _, vm := range rep.Unplaced {
		fmt.Fprintf(&b, " %d", vm.ID)
	}
	b.WriteString(" | rerouted")
	for _, vm := range rep.Rerouted {
		fmt.Fprintf(&b, " %d", vm.ID)
	}
	return b.String()
}

// placements renders where every VM of the cluster sits.
func placements(c *dcn.Cluster) string {
	var b strings.Builder
	for _, vm := range c.VMs() {
		host := -1
		if vm.Host() != nil {
			host = vm.Host().ID
		}
		fmt.Fprintf(&b, "%d@%d ", vm.ID, host)
	}
	return b.String()
}

// TestShimReuseMatchesFreshShim is the stale-scratch test of the
// management path. A shim keeps its knapsack, its round's selected set, its
// matrices, its rack prices and its solver workspace from one round to the
// next; none of it may carry a decision over. Two identical clusters take
// the same 64 rounds of server and ToR alerts: on one, a long-lived shim per
// rack handles every round; on the other, a fresh NewShim handles each. The
// reports — migrations, costs, search space, unplaced — and the final
// placements must be identical. The fabrics have a rack cut off below the
// bandwidth floor, so some pairs are Forbidden with no base, and the racks'
// shims differ in policy and region, so the matrices shrink and grow. A
// base left on a Forbidden pair never reaches a decision, so this test
// cannot see one; TestMatchPricesRacksOnce, which reads whole matrices
// through a reused scratch, does.
func TestShimReuseMatchesFreshShim(t *testing.T) {
	build := func() map[string]*fixture {
		fxs := matchFabrics(t, 3)
		for _, fx := range fxs {
			fx.cluster.Populate(dcn.PopulateOptions{VMsPerHost: 4, MinCapacity: 4, MaxCapacity: 30,
				DelayFraction: 0.1, DependencyProb: 0.5, CrossRackDependencyProb: 0.6, Seed: 28})
			cut := fx.cluster.Racks[2].NodeID
			for _, e := range fx.cluster.Graph.Edges(cut) {
				fx.cluster.Graph.SetBandwidth(cut, e.To, 0.1)
			}
			fx.model.Refresh()
		}
		return fxs
	}
	kinds := []placement.Kind{placement.Sheriff, placement.BestFit}
	params := func(rack int) Params {
		p := DefaultParams()
		p.Placement = placement.PolicyOptions{Kind: kinds[rack%len(kinds)]}
		if rack%3 == 0 {
			p.NeighborSwitchHops = 2
		}
		return p
	}
	long, fresh := build(), build()
	for name := range long {
		a, b := long[name], fresh[name]
		shims := map[int]*Shim{}
		rng := rand.New(rand.NewSource(64))
		moved := 0
		for round := 0; round < 64; round++ {
			rack := rng.Intn(len(a.cluster.Racks))
			var alerts []alert.Alert
			for _, h := range a.cluster.Racks[rack].Hosts {
				if rng.Intn(3) > 0 {
					alerts = append(alerts, alert.Alert{Kind: alert.FromServer, HostID: h.ID, RackIndex: rack, Value: 0.9})
				}
			}
			if rng.Intn(3) == 0 {
				alerts = append(alerts, alert.Alert{Kind: alert.FromLocalToR, RackIndex: rack, Value: 0.92})
			}
			if shims[rack] == nil {
				s, err := NewShim(a.cluster, a.model, a.cluster.Racks[rack], params(rack))
				if err != nil {
					t.Fatal(err)
				}
				shims[rack] = s
			}
			one, err := NewShim(b.cluster, b.model, b.cluster.Racks[rack], params(rack))
			if err != nil {
				t.Fatal(err)
			}
			got, err := shims[rack].ProcessAlerts(alerts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := one.ProcessAlerts(alerts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := reportSignature(got), reportSignature(want); g != w {
				t.Fatalf("%s round %d (rack %d): the long-lived shim reports\n  %s\na fresh shim\n  %s", name, round, rack, g, w)
			}
			moved += len(got.Migrations)
		}
		if g, w := placements(a.cluster), placements(b.cluster); g != w {
			t.Fatalf("%s: placements part after 64 rounds:\n  %s\n  %s", name, g, w)
		}
		if moved < 64 {
			t.Fatalf("%s: only %d migrations in 64 rounds; the rounds do not exercise the matching", name, moved)
		}
	}
}

// TestProcessAlertsSteadyStateAllocs is the management path's allocation
// gate (CI "Allocation gate" step). A warmed shim's server-alert round
// allocates the same small count however large its region: the Report,
// the round's selected set, the call's result and working copy, and the
// Migrations slices they fill. The knapsack, the region, the matrices, the
// rack prices and the solver workspace are the shim's and allocate nothing.
func TestProcessAlertsSteadyStateAllocs(t *testing.T) {
	fx := newFixture(t, 4, 2)
	c := fx.cluster
	h := c.Racks[0].Hosts[0]
	for i := 0; i < 4; i++ {
		if _, err := c.AddVM(h, 9, float64(i+1), false); err != nil {
			t.Fatal(err)
		}
	}
	alerts := []alert.Alert{{Kind: alert.FromServer, HostID: h.ID, RackIndex: 0, Value: 0.95}}
	round := func(s *Shim) func() {
		return func() {
			rep, err := s.ProcessAlerts(alerts)
			if err != nil || len(rep.Migrations) != 2 {
				t.Fatalf("round = %+v, %v; want two migrations", rep, err)
			}
			for _, m := range rep.Migrations { // undo, so every round is the same
				if err := c.Move(m.VM, m.From); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var counts []float64
	var regions []int
	for _, hops := range []int{1, 3} {
		p := DefaultParams()
		p.NeighborSwitchHops = hops
		s, err := NewShim(c, fx.model, c.Racks[0], p)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, len(s.regionHosts(true)))
		counts = append(counts, testing.AllocsPerRun(20, round(s)))
	}
	if regions[0] >= regions[1] {
		t.Fatalf("regions of %v hosts; the second must be larger", regions)
	}
	if counts[0] != counts[1] {
		t.Errorf("a server-alert round allocates %v times over %d hosts and %v over %d", counts[0], regions[0], counts[1], regions[1])
	}
	// The Report, two appends to the selected set, the MigrationResult, the
	// working copy, two appends to the call's Migrations and one to the
	// Report's.
	if counts[0] != 8 {
		t.Errorf("a server-alert round allocates %v times, want 8", counts[0])
	}
}
