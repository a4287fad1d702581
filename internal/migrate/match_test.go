package migrate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/placement"
	"sheriff/internal/topology"
)

// matchFabrics builds the two small fabrics of the pricing tests with a
// bandwidth floor in force, so that a rack can be cut off from the others.
func matchFabrics(t testing.TB, hostsPerRack int) map[string]*fixture {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*fixture{}
	for name, g := range map[string]*topology.Graph{"fat-tree-4": ft.Graph, "bcube-4": bc.Graph} {
		c, err := dcn.NewCluster(g, dcn.Config{HostsPerRack: hostsPerRack, HostCapacity: 100, ToRCapacity: 100 * float64(hostsPerRack)})
		if err != nil {
			t.Fatal(err)
		}
		p := cost.PaperParams()
		p.BandwidthFloor = 0.5
		m, err := cost.New(c, p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = &fixture{cluster: c, model: m}
	}
	return out
}

// TestMatchPricesRacksOnce holds Alg. 3's pricing — Eqn. (1) evaluated once
// per (VM, destination rack), the policy scoring every host — to the
// per-host pricing it replaced (refHostPairCost), bit for bit in the
// matching weights and in the costs charged on commit. The clusters are
// random and hold every case the two could part on: a detached VM (no source
// rack), hosts of the VM's own rack beside its own host, a rack whose every
// link is below the bandwidth floor (as source and as destination), barred
// pairs, dependent residents, full hosts, every matching policy including
// the oversubscribing one, and a host list in random order, so that a
// rack's hosts are not next to each other. It also counts: Eqn. (1) ran
// once for each (VM, rack) with a host that got as far as being priced, and
// for no other. The second and third matrix of each case are priced through
// copies of the core, as the distributed protocol's fallback rung does for
// one shim after another.
func TestMatchPricesRacksOnce(t *testing.T) {
	for name, fx := range matchFabrics(t, 3) {
		c, m := fx.cluster, fx.model
		c.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 10, MaxCapacity: 45,
			DependencyProb: 0.5, CrossRackDependencyProb: 0.6, Seed: 5})
		cut := c.Racks[2].NodeID
		for _, e := range c.Graph.Edges(cut) {
			c.Graph.SetBandwidth(cut, e.To, 0.1)
		}
		m.Refresh()
		for _, kind := range placement.Kinds() {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				opts := placement.PolicyOptions{Kind: kind, Seed: seed}
				pol, err := opts.New()
				if err != nil {
					t.Fatal(err)
				}
				refPol, _ := opts.New()
				hosts := append([]*dcn.Host(nil), c.Hosts()...)
				rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
				hosts = hosts[:len(hosts)*3/4]
				all := c.VMs()
				k := core{c: c, m: m, pol: pol}
				for pass := 0; pass < 3; pass++ {
					kk := &k
					if pass > 0 {
						last := k // shares the scratch the first pass built
						kk = &last
					}
					// Two VMs of the cut-off rack, four others, one of them detached.
					vms := append([]*dcn.VM(nil), c.Racks[2].VMs()[:2]...)
					for len(vms) < 6 {
						vms = append(vms, all[rng.Intn(len(all))])
					}
					detached := vms[5]
					home := detached.Host()
					c.Evict(detached)
					salt := rng.Intn(1 << 16)
					barred := func(i, j int) bool { return (vms[i].ID*31+j*17+salt)%9 == 0 }

					type vmRack struct{ vm, rack int }
					priced := map[vmRack]bool{}
					wantCosts := make([][]float64, len(vms))
					wantBases := make([][]float64, len(vms))
					wantFeasible := false
					for i, vm := range vms {
						wantCosts[i] = make([]float64, len(hosts))
						wantBases[i] = make([]float64, len(hosts))
						for j, h := range hosts {
							if barred(i, j) {
								wantCosts[i][j] = math.Inf(1)
								continue
							}
							wantCosts[i][j], wantBases[i][j] = refHostPairCost(c, m, refPol, vm, h)
							if _, conflict := h.Conflict(c.Deps, vm.ID); h != vm.Host() && refPol.Feasible(vm.Capacity, h) && !conflict {
								priced[vmRack{i, h.Rack().Index}] = true
							}
							wantFeasible = wantFeasible || !math.IsInf(wantCosts[i][j], 1)
						}
					}

					before := 0
					if kk.scratch != nil {
						before = kk.scratch.priced
					}
					costs, bases, feasible := kk.price(vms, hosts, barred)
					label := fmt.Sprintf("%s %v seed %d pass %d", name, kind, seed, pass)
					if feasible != wantFeasible {
						t.Fatalf("%s: feasible = %v, per-host pricing says %v", label, feasible, wantFeasible)
					}
					for i := range vms {
						for j := range hosts {
							if math.Float64bits(costs[i][j]) != math.Float64bits(wantCosts[i][j]) ||
								math.Float64bits(bases[i][j]) != math.Float64bits(wantBases[i][j]) {
								t.Fatalf("%s: vm %d → host %d (rack %d): weight %v base %v, per-host pricing gives %v and %v",
									label, vms[i].ID, hosts[j].ID, hosts[j].Rack().Index, costs[i][j], bases[i][j], wantCosts[i][j], wantBases[i][j])
							}
						}
					}
					if got := kk.scratch.priced - before; got != len(priced) {
						t.Fatalf("%s: Eqn. (1) evaluated %d times for %d (VM, rack) pairs with a host to price", label, got, len(priced))
					}
					if err := c.Move(detached, home); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestMatchAllocsDoNotGrowWithHosts is the allocation gate of the matching
// step (CI "Allocation gate" step): the two matrices, the rack prices and
// the solver's workspace live in the core's scratch, so once it has grown
// to the largest instance neither pricing nor matching allocates, however
// many hosts it prices.
func TestMatchAllocsDoNotGrowWithHosts(t *testing.T) {
	fx := matchFabrics(t, 4)["bcube-4"]
	c := fx.cluster
	c.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 10, MaxCapacity: 30,
		DependencyProb: 0.5, CrossRackDependencyProb: 0.6, Seed: 6})
	vms := c.Racks[0].VMs()[:6]
	k := core{c: c, m: fx.model, pol: policyOrSheriff(nil)}
	allocs := func(hosts []*dcn.Host) float64 {
		return testing.AllocsPerRun(20, func() {
			if assign, _, err := k.match(vms, hosts, nil); err != nil || assign == nil {
				t.Fatalf("match = %v, %v", assign, err)
			}
		})
	}
	few, many := allocs(c.Hosts()[:16]), allocs(c.Hosts())
	if few != 0 || many != 0 {
		t.Errorf("a warm match allocates %v times over 16 hosts and %v over %d, want 0", few, many, len(c.Hosts()))
	}
	pricing := testing.AllocsPerRun(20, func() { k.price(vms, c.Hosts(), nil) })
	if pricing != 0 {
		t.Errorf("a warm price allocates %v times, want 0", pricing)
	}
}

// BenchmarkMatch is the matching step at the size of a BCube 8 shim's
// region in the bc8-deep-snap workload: six alerted VMs of one rack against
// the thirty hosts of the fifteen racks one switch away.
func BenchmarkMatch(b *testing.B) {
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 8})
	if err != nil {
		b.Fatal(err)
	}
	c, err := dcn.NewCluster(bc.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		b.Fatal(err)
	}
	m, err := cost.New(c, cost.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	c.Populate(dcn.PopulateOptions{VMsPerHost: 4, MinCapacity: 5, MaxCapacity: 20,
		DependencyProb: 0.5, CrossRackDependencyProb: 0.5, Seed: 1})
	shim, err := NewShim(c, m, c.Racks[0], DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	hosts := shim.regionHosts(true)
	vms := c.Racks[0].VMs()[:6]
	if len(hosts) != 30 {
		b.Fatalf("region holds %d hosts, want 30", len(hosts))
	}
	k := core{c: c, m: m, pol: policyOrSheriff(nil)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if assign, _, err := k.match(vms, hosts, nil); err != nil || assign == nil {
			b.Fatalf("match = %v, %v", assign, err)
		}
	}
}
