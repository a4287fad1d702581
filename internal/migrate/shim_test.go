package migrate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/alloctest"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// reportSignature renders everything a management round reports, costs by
// their bits.
func reportSignature(rep *Tally) string {
	var b strings.Builder
	for _, m := range rep.Migrations {
		fmt.Fprintf(&b, "m%d:%d>%d@%x ", m.VM.ID, m.From.ID, m.To.ID, math.Float64bits(m.Cost))
	}
	fmt.Fprintf(&b, "| total %x space %d rejected %d | unplaced",
		math.Float64bits(rep.TotalCost), rep.SearchSpace, rep.Rejected)
	for _, vm := range rep.Unplaced {
		fmt.Fprintf(&b, " %d", vm.ID)
	}
	return b.String()
}

// placements renders where every VM of the cluster sits.
func placements(c *dcn.Cluster) string {
	var b strings.Builder
	for _, vm := range c.VMs() {
		fmt.Fprintf(&b, "%d@%d ", vm.ID, vm.Host().ID)
	}
	return b.String()
}

// TestShimReuseMatchesFreshShim is the stale-scratch test of the
// management path. A workspace keeps its knapsack, its round's selected
// set, its matrices, its rack prices and its solver memory from one round
// to the next, whichever shim ran it; none of it may carry a decision over.
// Two identical clusters take the same 64 rounds of server and ToR alerts:
// on one, a long-lived shim per rack handles every round, all of them over
// one workspace; on the other, a fresh NewShim with a workspace of its own
// handles each. The
// reports — migrations, costs, search space, unplaced — and the final
// placements must be identical. The fabrics have a rack cut off below the
// bandwidth floor, so some pairs are Forbidden with no base, and the racks'
// shims differ in region, so the matrices shrink and grow. A base left on a
// Forbidden pair never reaches a decision, so this test cannot see one;
// TestMatchPricesRacksOnce, which reads whole matrices through a reused
// scratch, does.
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
	params := func(rack int) Params {
		p := DefaultParams()
		if rack%3 == 0 {
			p.NeighborSwitchHops = 2
		}
		return p
	}
	long, fresh := build(), build()
	for name := range long {
		a, b := long[name], fresh[name]
		shims := map[int]*Shim{}
		var ws Workspace
		rng := rand.New(rand.NewSource(64))
		moved := 0
		for round := 0; round < 64; round++ {
			rack := rng.Intn(len(a.cluster.Racks))
			var alerts []alert.Alert
			for _, h := range a.cluster.Racks[rack].Hosts {
				if rng.Intn(3) > 0 {
					alerts = append(alerts, alert.Alert{Kind: alert.FromServer, HostID: h.ID, Value: 0.9})
				}
			}
			if rng.Intn(3) == 0 {
				alerts = append(alerts, alert.Alert{Kind: alert.FromLocalToR, Value: 0.92})
			}
			if shims[rack] == nil {
				s, err := NewShim(a.cluster, a.model, a.cluster.Racks[rack], params(rack), &ws)
				if err != nil {
					t.Fatal(err)
				}
				shims[rack] = s
			}
			one, err := NewShim(b.cluster, b.model, b.cluster.Racks[rack], params(rack), nil)
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
// gate (CI "Allocation gate" step). A warmed shim's round allocates nothing
// however large its region, with server alerts alone or with a ToR alert
// too: the region is the shim's, and the report, the selected sets, the
// knapsack, the matrices, the rack prices, the solver memory and the lists
// of VMs left to place are its workspace's, reused from round to round.
func TestProcessAlertsSteadyStateAllocs(t *testing.T) {
	fx := newFixture(t, 4, 2)
	c := fx.cluster
	h := c.Racks[0].Hosts[0]
	for i := 0; i < 4; i++ {
		if _, err := c.AddVM(h, 9, float64(i+1), false); err != nil {
			t.Fatal(err)
		}
	}
	server := alert.Alert{Kind: alert.FromServer, HostID: h.ID, Value: 0.95}
	tor := alert.Alert{Kind: alert.FromLocalToR, Value: 0.92}
	round := func(s *Shim, alerts []alert.Alert, want int) func() {
		return func() {
			rep, err := s.ProcessAlerts(alerts)
			if err != nil || len(rep.Migrations) != want {
				t.Fatalf("round = %+v, %v; want %d migrations", rep, err, want)
			}
			for i := len(rep.Migrations) - 1; i >= 0; i-- { // undo, so every round is the same
				m := rep.Migrations[i]
				if err := c.Move(m.VM, m.From); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name   string
		alerts []alert.Alert
		want   int // migrations: two for the server alert, two more for the ToR's
	}{
		{"server", []alert.Alert{server}, 2},
		{"server+tor", []alert.Alert{server, tor}, 4},
	} {
		var regions []int
		for _, hops := range []int{1, 3} {
			p := DefaultParams()
			p.NeighborSwitchHops = hops
			s, err := NewShim(c, fx.model, c.Racks[0], p, nil)
			if err != nil {
				t.Fatal(err)
			}
			regions = append(regions, len(s.regionHosts(true)))
			alloctest.Count(t, tc.name+"/hops-"+strconv.Itoa(hops), round(s, tc.alerts, tc.want))
			if tc.want == 4 && (len(s.ws.hostSet) == 0 || len(s.ws.torSet) == 0) {
				t.Fatalf("%s round selected %d host and %d ToR VMs; the gate needs both calls", tc.name, len(s.ws.hostSet), len(s.ws.torSet))
			}
		}
		if regions[0] >= regions[1] {
			t.Fatalf("regions of %v hosts; the second must be larger", regions)
		}
	}
}

// TestSharedWorkspaceWarmsOnce: shims built over one workspace share its
// memory, the tally their rounds return included. Once one shim's rounds
// have warmed it, another shim's first round of the same size allocates
// nothing, and shims built over the workspace are carved from its chunks,
// which double when they run out: 64 of them cost at most three chunks
// (shims, neighbour lists, regions) times seven doublings, 21, where three
// objects a shim would be 192.
func TestSharedWorkspaceWarmsOnce(t *testing.T) {
	fx := newFixture(t, 4, 2)
	c := fx.cluster
	for _, h := range c.Hosts() { // size every host's resident list
		vm, err := c.AddVM(h, 9, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Remove(vm)
	}
	var alerts [2][]alert.Alert
	for rack := range alerts {
		h := c.Racks[rack].Hosts[0]
		for i := 0; i < 4; i++ {
			if _, err := c.AddVM(h, 9, float64(i+1), false); err != nil {
				t.Fatal(err)
			}
		}
		alerts[rack] = []alert.Alert{{Kind: alert.FromServer, HostID: h.ID, Value: 0.95}, {Kind: alert.FromLocalToR, Value: 0.92}}
	}
	var ws Workspace
	build := func(rack int) *Shim {
		s, err := NewShim(c, fx.model, c.Racks[rack], DefaultParams(), &ws)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	round := func(s *Shim) *Tally {
		rep, err := s.ProcessAlerts(alerts[s.Rack.Index])
		if err != nil || len(rep.Migrations) != 4 {
			t.Fatalf("rack %d round = %+v, %v; want 4 migrations", s.Rack.Index, rep, err)
		}
		for i := len(rep.Migrations) - 1; i >= 0; i-- { // undo, so every round is the same
			m := rep.Migrations[i]
			if err := c.Move(m.VM, m.From); err != nil {
				t.Fatal(err)
			}
		}
		return rep
	}
	first := build(0)
	for i := 0; i < 3; i++ {
		round(first)
	}
	alloctest.Count(t, "64-shims", func() {
		for i := 0; i < 64; i++ {
			build(i % len(c.Racks))
		}
	})
	second := build(1)
	var rep *Tally
	alloctest.Count(t, "first-round", func() { rep = round(second) })
	if rep != round(first) {
		t.Error("two shims over one workspace return different tallies; the tally is the workspace's")
	}
}

// shimTwins builds two identical clusters on each fabric of matchFabrics,
// populated with dependent VMs: what one does, the other can replay.
func shimTwins(t *testing.T) (a, b map[string]*fixture) {
	build := func() map[string]*fixture {
		fxs := matchFabrics(t, 3)
		for _, fx := range fxs {
			fx.cluster.Populate(dcn.PopulateOptions{VMsPerHost: 4, MinCapacity: 4, MaxCapacity: 30,
				DelayFraction: 0.1, DependencyProb: 0.5, CrossRackDependencyProb: 0.6, Seed: 31})
		}
		return fxs
	}
	return build(), build()
}

// twinVMs returns the VMs of c with the IDs of vms.
func twinVMs(c *dcn.Cluster, vms []*dcn.VM) []*dcn.VM {
	out := make([]*dcn.VM, len(vms))
	for i, vm := range vms {
		out[i] = c.VM(vm.ID)
	}
	return out
}

// TestProcessAlertsFoldsItsCalls: a round counts its VMMIGRATION calls
// straight into the shim's report, yet reports exactly what the two
// Migrate calls it makes, folded with Tally.Add, report on a twin cluster —
// migrations, unplaced VMs, search space, rejections, and the total cost
// bit for bit: each call's cost is summed on its own, then added.
func TestProcessAlertsFoldsItsCalls(t *testing.T) {
	long, twin := shimTwins(t)
	for name := range long {
		a, b := long[name], twin[name]
		both := 0
		for round := 0; round < 2; round++ {
			for _, rack := range a.cluster.Racks {
				alerts := []alert.Alert{{Kind: alert.FromLocalToR, Value: 0.92}}
				for _, h := range rack.Hosts {
					alerts = append(alerts, alert.Alert{Kind: alert.FromServer, HostID: h.ID, Value: 0.9})
				}
				sa, err := NewShim(a.cluster, a.model, rack, DefaultParams(), nil)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := NewShim(b.cluster, b.model, b.cluster.Racks[rack.Index], DefaultParams(), nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sa.ProcessAlerts(alerts)
				if err != nil {
					t.Fatal(err)
				}
				var want Tally
				for i, set := range [][]*dcn.VM{sa.ws.hostSet, sa.ws.torSet} {
					if len(set) == 0 {
						continue
					}
					res, err := Migrate(b.cluster, b.model, twinVMs(b.cluster, set), sb.regionHosts(i == 0), sb.migrationOptions())
					if err != nil {
						t.Fatal(err)
					}
					want.Add(res)
				}
				if g, w := reportSignature(got), reportSignature(&want); g != w {
					t.Fatalf("%s rack %d: the round reports\n  %s\nits two Migrate calls, folded,\n  %s", name, rack.Index, g, w)
				}
				if len(sa.ws.hostSet) > 0 && len(sa.ws.torSet) > 0 && len(got.Migrations) > 0 {
					both++
				}
			}
		}
		if g, w := placements(a.cluster), placements(b.cluster); g != w {
			t.Fatalf("%s: placements part:\n  %s\n  %s", name, g, w)
		}
		if both == 0 {
			t.Fatalf("%s: no round selected for both calls; the test does not exercise the fold", name)
		}
	}
}

// TestProcessAlertsKeepsTheCallsThatSucceeded: a shim with no neighbour
// rack has nowhere to send a ToR alert's VMs, so the round's ToR call fails
// with ErrNoCandidates. The report it returns holds the host call's results
// alone — what Migrate reports for that call on a twin cluster — and
// nothing of the failed call.
func TestProcessAlertsKeepsTheCallsThatSucceeded(t *testing.T) {
	build := func() *fixture {
		g := topology.NewGraph()
		sw := g.AddNode(topology.Switch, "s", 0, 1)
		rack := g.AddNode(topology.Rack, "r", 0, 0)
		if err := g.AddLink(rack, sw, 10, 1); err != nil {
			t.Fatal(err)
		}
		c, err := dcn.NewCluster(g, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := c.AddVM(c.Racks[0].Hosts[0], 9, float64(i+1), false); err != nil {
				t.Fatal(err)
			}
		}
		m, err := cost.New(c, cost.PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		return &fixture{cluster: c, model: m}
	}
	a, b := build(), build()
	s, err := NewShim(a.cluster, a.model, a.cluster.Racks[0], DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.NeighborRacks()) != 0 {
		t.Fatalf("shim has neighbour racks %v; the test needs none", s.NeighborRacks())
	}
	host := a.cluster.Racks[0].Hosts[0]
	rep, err := s.ProcessAlerts([]alert.Alert{
		{Kind: alert.FromServer, HostID: host.ID, Value: 0.95},
		{Kind: alert.FromLocalToR, Value: 0.92},
	})
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("ProcessAlerts error = %v, want ErrNoCandidates", err)
	}
	if len(s.ws.torSet) == 0 {
		t.Fatal("the ToR alert selected nothing; the ToR call was never made")
	}
	res, err := Migrate(b.cluster, b.model, twinVMs(b.cluster, s.ws.hostSet), b.cluster.Racks[0].Hosts, s.migrationOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) == 0 {
		t.Fatal("the host call moved nothing; the report would be empty either way")
	}
	if g, w := reportSignature(rep), reportSignature(res); g != w {
		t.Fatalf("report after the failed ToR call\n  %s\nthe host call alone\n  %s", g, w)
	}
}
