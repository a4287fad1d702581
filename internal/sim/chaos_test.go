package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// chaosFT8Trace runs two RunChaos episodes on one Fat-Tree 8 hot-pod
// cluster per seed, the second over what the first left, and returns the
// JSONL trace of all of them. The plan holds every fault the bus knows: a
// dead link, a partition of pod 0, loss, 25 % duplication, reordering and
// jitter.
func chaosFT8Trace(t *testing.T, seeds ...int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, seed := range seeds {
		s, err := Build(Config{Kind: FatTree, Size: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s.PopulateHotPods(0.5, 0.85, 0.35)
		rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.NewJSONL(&buf)}})
		if err != nil {
			t.Fatal(err)
		}
		plan := faults.Plan{
			Seed:        seed,
			Drop:        0.2,
			DupRate:     0.25,
			ReorderRate: 0.3,
			Jitter:      1,
			Links:       []faults.LinkDrop{{From: 0, To: 1, Drop: 1}},
			Partitions:  []faults.Partition{{Name: "pod-cut", Start: 1, Rounds: 3, Nodes: []int{0, 1, 2, 3}}},
		}
		opts := migrate.DistOptions{Seed: seed, Recorder: rec}
		for ep := 0; ep < 2; ep++ {
			if _, err := s.RunChaos(plan, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// benchChaos builds one episode of the bench's ft16-dist-chaos workload: a
// Fat-Tree 16 hot-pod cluster and its fault plan.
func benchChaos(tb testing.TB, seed int64) (*Sim, faults.Plan) {
	tb.Helper()
	return chaosEpisode(tb, 16, seed)
}

// chaosEpisode builds one episode of the bench's shape on a Fat-Tree of the
// given pods: a hot-pod cluster and the bench's fault plan.
func chaosEpisode(tb testing.TB, pods int, seed int64) (*Sim, faults.Plan) {
	tb.Helper()
	s, err := Build(Config{Kind: FatTree, Size: pods, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	s.PopulateHotPods(0.5, 0.85, 0.35)
	return s, faults.Plan{Seed: seed, Drop: 0.2, DupRate: 0.1, ReorderRate: 0.2, Jitter: 1}
}

// chaosUnreportedMoves is how many VMs of seeds 1–50 of the bench's chaos
// episodes end on another host without appearing in Migrations or
// Unplaced: the protocol runs out of rounds with a REQUEST in flight
// whose move the destination has already applied.
const chaosUnreportedMoves = 2

// TestChaosUnreportedMoves sizes that conservation hole on the bench's
// shape. A VM whose host changed must be reported moved; the count of
// those that are not is pinned, so that fixing the hole shows here.
func TestChaosUnreportedMoves(t *testing.T) {
	unreported := 0
	for seed := int64(1); seed <= 50; seed++ {
		s, plan := benchChaos(t, seed)
		vms := s.Cluster.VMs()
		before := make([]*dcn.Host, len(vms))
		for i, vm := range vms {
			before[i] = vm.Host()
		}
		res, err := s.RunChaos(plan, migrate.DistOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		reported := make(map[*dcn.VM]bool, len(res.Migrations)+len(res.Unplaced))
		for _, mg := range res.Migrations {
			reported[mg.VM] = true
		}
		for _, vm := range res.Unplaced {
			reported[vm] = true
		}
		for i, vm := range vms {
			if vm.Host() != before[i] && !reported[vm] {
				unreported++
				t.Logf("seed %d: VM %d moved from host %d to host %d unreported", seed, vm.ID, before[i].ID, vm.Host().ID)
			}
		}
	}
	if unreported != chaosUnreportedMoves {
		t.Fatalf("%d VMs moved unreported over 50 episodes, want %d", unreported, chaosUnreportedMoves)
	}
}

// chaosAllocSlack is how far apart two chaos episodes' allocation counts
// may lie: the bus traffic beyond its reservation and the requests beyond
// two a candidate may still grow, doubling, on a hostile draw.
const chaosAllocSlack = 4

// chaosAllocBound is the most one chaos episode may allocate. It allocates
// 24 times: the protocol record and its 13 tables, the bus and its 3, the
// fault injector's 3, and the alerts' table, their array and the shims'
// view of them. The bound adds a little over the slack.
const chaosAllocBound = 30

// TestRunChaosAllocsFlat pins a chaos episode to tables carved once per
// call: under the bench's plan, a Fat-Tree 8 and a Fat-Tree 16 episode
// allocate as often as each other at every seed, within chaosAllocSlack,
// although the Fat-Tree 16 one relocates four times the VMs over eight
// times the racks through more rounds, retries, rejects and fallbacks.
func TestRunChaosAllocsFlat(t *testing.T) {
	// A collection starting inside an episode allocates for itself.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var retransmits, rejects, fallbacks int
	allocs := func(pods int, seed int64) uint64 {
		s, plan := chaosEpisode(t, pods, seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.RunChaos(plan, migrate.DistOptions{Seed: seed})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		retransmits, rejects, fallbacks = retransmits+res.Retransmits, rejects+res.Rejected, fallbacks+res.Fallbacks
		t.Logf("FT%d seed %d: %d allocs, %d B; %d migrations, %d rounds, %d retransmits, %d rejects, %d fallbacks",
			pods, seed, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc, len(res.Migrations), res.Rounds,
			res.Retransmits, res.Rejected, res.Fallbacks)
		return after.Mallocs - before.Mallocs
	}
	for seed := int64(1); seed <= 5; seed++ {
		small, large := allocs(8, seed), allocs(16, seed)
		if large > chaosAllocBound || small > chaosAllocBound {
			t.Errorf("seed %d: FT8 allocates %d times, FT16 %d: over the bound of %d", seed, small, large, chaosAllocBound)
		}
		if max(small, large)-min(small, large) > chaosAllocSlack {
			t.Errorf("seed %d: FT8 allocates %d times, FT16 %d: the count grows with the episode", seed, small, large)
		}
	}
	if retransmits == 0 || rejects == 0 || fallbacks == 0 {
		t.Fatalf("%d retransmits, %d rejects, %d fallbacks: the episodes miss a path the test pins", retransmits, rejects, fallbacks)
	}
}

// BenchmarkRunChaos is one ft16-dist-chaos episode per op: the cluster is
// built and populated outside the timer, RunChaos inside it.
func BenchmarkRunChaos(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, plan := benchChaos(b, 1)
		b.StartTimer()
		if _, err := s.RunChaos(plan, migrate.DistOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChaosFT8Golden pins the JSONL trace of RunChaos on a Fat-Tree 8
// hot-pod cluster at two seeds, byte for byte: the distributed handshake at
// a size where every rung of its degradation ladder is reached. Regenerate
// with: go test ./internal/sim/ -run TestChaosFT8Golden -update
func TestChaosFT8Golden(t *testing.T) {
	got := chaosFT8Trace(t, 3, 8)
	// The trace must reach every path the golden is meant to hold: dedup, a
	// lost ACK, the fallback ladder and a VM it could not place.
	for _, want := range []string{`"kind":"suppress"`, `"cause":"lost-ack"`, `"kind":"fallback"`,
		`"kind":"unplaced"`} {
		if !bytes.Contains(got, []byte(want)) {
			t.Fatalf("FT8 chaos trace missing %s", want)
		}
	}
	path := filepath.Join("testdata", "chaos_ft8.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		for i := 0; i < len(got) && i < len(want) && got[i] == want[i]; i++ {
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("FT8 chaos trace diverges from golden at line %d: got %d bytes, want %d\nregenerate with -update if the change is intended",
			line, len(got), len(want))
	}
}
