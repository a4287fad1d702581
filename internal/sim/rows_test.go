package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
)

// Build prepares every rack's cost row regionally, at the shims' radius.
// Every run on such a Sim must decide what it decides on a model of full
// rows, and a chaos episode's reads must all fall inside the regions.

// twinSims builds two identical Sims from cfg; the second's model is
// forced to full rows.
func twinSims(t *testing.T, cfg Config) (regional, full *Sim) {
	t.Helper()
	regional, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full.Model.Refresh()
	return regional, full
}

// placementKey lists every VM's host ID, -1 for none.
func placementKey(c *dcn.Cluster) string {
	var b strings.Builder
	for _, vm := range c.VMs() {
		id := -1
		if h := vm.Host(); h != nil {
			id = h.ID
		}
		fmt.Fprintf(&b, "%d ", id)
	}
	return b.String()
}

// tallyKey renders a tally by VM and host IDs and the bits of every cost.
func tallyKey(t *migrate.Tally) string {
	hostID := func(h *dcn.Host) int {
		if h == nil {
			return -1
		}
		return h.ID
	}
	var b strings.Builder
	for _, mg := range t.Migrations {
		fmt.Fprintf(&b, "%d:%d>%d@%x ", mg.VM.ID, hostID(mg.From), hostID(mg.To), math.Float64bits(mg.Cost))
	}
	fmt.Fprintf(&b, "| %x %d %d %d %d |", math.Float64bits(t.TotalCost), t.SearchSpace, t.Rejected, t.Preemptions, t.Requeued)
	for _, vm := range t.Unplaced {
		fmt.Fprintf(&b, " %d", vm.ID)
	}
	return b.String()
}

func TestBuildRowsMatchFullRows(t *testing.T) {
	for _, fc := range []struct {
		kind Kind
		size int
	}{{FatTree, 8}, {BCube, 4}, {FatTree, 16}} {
		t.Run(fmt.Sprintf("%v-%d", fc.kind, fc.size), func(t *testing.T) {
			var migrations, lateRows int
			for seed := int64(1); seed <= 20; seed++ {
				cfg := Config{Kind: fc.kind, Size: fc.size, Seed: seed}

				var chaos [2]string
				regional, full := twinSims(t, cfg)
				for i, s := range []*Sim{regional, full} {
					s.PopulateHotPods(0.5, 0.85, 0.35)
					plan := faults.Plan{Seed: seed, Drop: 0.2, DupRate: 0.1, ReorderRate: 0.2, Jitter: 1}
					res, err := s.RunChaos(plan, migrate.DistOptions{Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					chaos[i] = fmt.Sprint(tallyKey(&res.Tally), res.Retransmits, res.Suppressed, res.Fallbacks, res.Rounds, placementKey(s.Cluster))
					migrations += len(res.Migrations)
				}
				if chaos[0] != chaos[1] {
					t.Fatalf("seed %d: RunChaos on Build's rows\n%s\nfull rows\n%s", seed, chaos[0], chaos[1])
				}

				var cmp [2]string
				regR, fullR := twinSims(t, cfg)
				regG, fullG := twinSims(t, cfg)
				for i, pair := range [][2]*Sim{{regR, regG}, {fullR, fullG}} {
					res, err := compareOn(pair[0], pair[1])
					if err != nil {
						t.Fatal(err)
					}
					cmp[i] = fmt.Sprintf("%+v %x %x %s %s", *res, math.Float64bits(res.SheriffCost), math.Float64bits(res.CentralCost),
						placementKey(pair[0].Cluster), placementKey(pair[1].Cluster))
					migrations += res.SheriffMigrations + res.CentralMigrations
				}
				if cmp[0] != cmp[1] {
					t.Fatalf("seed %d: Compare on Build's rows\n%s\nfull rows\n%s", seed, cmp[0], cmp[1])
				}
				for _, s := range []*Sim{regR, regG} {
					_, late := s.Model.SweepCounts()
					lateRows += int(late)
				}

				var bal [2]string
				regional, full = twinSims(t, cfg)
				for i, s := range []*Sim{regional, full} {
					s.Populate() // dependent peers: the distance table is read
					s.PopulateSkewed(0.5)
					var b strings.Builder
					for round := 0; round < 3; round++ {
						sd, rep, err := s.BalancingRound(0.05)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&b, "%x:%s", math.Float64bits(sd), tallyKey(&rep))
						migrations += len(rep.Migrations)
					}
					bal[i] = b.String() + placementKey(s.Cluster)
				}
				if bal[0] != bal[1] {
					t.Fatalf("seed %d: BalancingRound on Build's rows\n%s\nfull rows\n%s", seed, bal[0], bal[1])
				}
			}
			if migrations == 0 || lateRows == 0 {
				t.Fatalf("%d migrations, %d rows swept on demand: the runs did not exercise both kinds of read", migrations, lateRows)
			}
		})
	}
}

// TestBuildRowsCoverChaosReads is the sim twin of the runtime's
// TestRegionalRowsCoverEveryRead: over the bench's ft16-dist-chaos
// episodes, Build prepares one row per rack and RunChaos reads each only
// inside its region, so no row is swept on demand.
func TestBuildRowsCoverChaosReads(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s, plan := benchChaos(t, seed)
		if prepared, _ := s.Model.SweepCounts(); int(prepared) != len(s.Cluster.Racks) {
			t.Fatalf("seed %d: Build prepared %d rows for %d racks", seed, prepared, len(s.Cluster.Racks))
		}
		res, err := s.RunChaos(plan, migrate.DistOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Migrations) == 0 {
			t.Fatalf("seed %d: no migrations; nothing priced", seed)
		}
		if _, onDemand := s.Model.SweepCounts(); onDemand != 0 {
			t.Fatalf("seed %d: RunChaos swept %d rows on demand, want 0", seed, onDemand)
		}
	}
}
