package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
)

// Once a shape repeats, Build sweeps its cost rows once more and every
// later Sim of the shape reads them in place (cost.Prepared). Nothing a Sim
// does may write them, and the rows a Sim reads must answer as a fresh
// sweep does.

// currentRows returns the prepared rows Build keeps, and their shape.
func currentRows() (shape, *cost.Prepared) {
	prepared.Lock()
	defer prepared.Unlock()
	if prepared.tmpl == nil {
		return prepared.shape, nil
	}
	return prepared.shape, prepared.tmpl.rows
}

// freshCluster builds an empty cluster of cfg's shape on a fabric of its
// own.
func freshCluster(t *testing.T, cfg Config) *dcn.Cluster {
	t.Helper()
	g, err := newGraph(cfg.Kind, cfg.Size)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCluster(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sharing builds n Sims of cfg's shape that read its shared rows: a Build
// before them makes the shape the last built, whatever was built before.
func sharing(t *testing.T, cfg Config, n int) []*Sim {
	t.Helper()
	sims := make([]*Sim, n+1)
	for i := range sims {
		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = s
	}
	if _, rows := currentRows(); rows == nil {
		t.Fatal("a shape built twice in a row has no shared rows")
	}
	return sims[1:]
}

// deepSum hashes every byte reachable from v: numbers by their bits,
// strings, and what slices, arrays, structs and pointers hold, unexported
// fields included. A pointer met twice is hashed once.
func deepSum(v any) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	seen := map[uintptr]bool{}
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			if v.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			put(v.Uint())
		case reflect.Float32, reflect.Float64:
			put(math.Float64bits(v.Float()))
		case reflect.String:
			h.Write([]byte(v.String()))
		case reflect.Slice, reflect.Array:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				put(0)
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		default:
			panic(fmt.Sprintf("deepSum: %v", v.Type()))
		}
	}
	walk(reflect.ValueOf(v))
	return h.Sum64()
}

// sameAnswers fails t unless every rack pair of s prices as a freshly
// swept model of s's shape prices it: RackPairCost and TransmissionCost,
// bit for bit. Pairs outside the prepared regions sweep their rows on
// demand.
func sameAnswers(t *testing.T, s *Sim) {
	t.Helper()
	c := freshCluster(t, s.Config)
	fresh, err := cost.New(c, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range s.Cluster.Racks {
		for j, b := range s.Cluster.Racks {
			fa, fb := c.Racks[i], c.Racks[j]
			if got, want := s.Model.RackPairCost(a, b), fresh.RackPairCost(fa, fb); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v-%d: RackPairCost(%d, %d) = %v, a fresh sweep %v", s.Config.Kind, s.Config.Size, i, j, got, want)
			}
			got, gerr := s.Model.TransmissionCost(a, b, 17)
			want, werr := fresh.TransmissionCost(fa, fb, 17)
			if math.Float64bits(got) != math.Float64bits(want) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%v-%d: TransmissionCost(%d, %d) = %v, %v; a fresh sweep %v, %v", s.Config.Kind, s.Config.Size, i, j, got, gerr, want, werr)
			}
		}
	}
}

// TestPreparedRowsStayPristine: Sims of one shape run chaos episodes,
// balancing rounds, Compare's migrations and an explicit refresh, and sweep
// rows on demand, and the rows they share are byte for byte what Build
// prepared; Compare itself neither reads nor drops them. Another shape
// drops them, and the first shape built twice again prepares the same rows
// afresh, which answer as a fresh sweep does.
func TestPreparedRowsStayPristine(t *testing.T) {
	cfg := Config{Kind: FatTree, Size: 8, Seed: 1}
	sims := sharing(t, cfg, 1)
	key, rows := currentRows()
	sum := deepSum(rows)

	var onDemand uint64
	first := sims[0]
	first.PopulateHotPods(0.5, 0.85, 0.35)
	for ep := int64(0); ep < 2; ep++ {
		if _, err := first.RunChaos(faults.Plan{Seed: ep, Drop: 0.2, DupRate: 0.1, ReorderRate: 0.2, Jitter: 1}, migrate.DistOptions{Seed: ep}); err != nil {
			t.Fatal(err)
		}
	}
	bal, err := Build(Config{Kind: FatTree, Size: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bal.Populate() // dependent peers: the distance table is read
	bal.PopulateSkewed(0.5)
	for round := 0; round < 2; round++ {
		if _, _, err := bal.BalancingRound(0.05); err != nil {
			t.Fatal(err)
		}
	}
	pair := sharing(t, Config{Kind: FatTree, Size: 8, Seed: 3}, 2)
	res, err := compareOn(pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.SheriffMigrations+res.CentralMigrations == 0 {
		t.Fatal("Compare migrated nothing; nothing priced")
	}
	if _, err := Compare(Config{Kind: FatTree, Size: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	refreshed, err := Build(Config{Kind: FatTree, Size: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	refreshed.Model.Refresh()
	for _, s := range []*Sim{first, bal, pair[0], pair[1], refreshed} {
		sameAnswers(t, s) // and sweeps every row the regions leave out
		_, late := s.Model.SweepCounts()
		onDemand += late
	}
	if onDemand == 0 {
		t.Fatal("no row was swept on demand; no Sim wrote its own copy")
	}
	if k, now := currentRows(); k != key || now != rows || deepSum(now) != sum {
		t.Fatalf("the prepared rows changed under the Sims that read them (shape %+v → %+v)", key, k)
	}

	if _, err := Build(Config{Kind: BCube, Size: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if k, now := currentRows(); k == key || now != nil {
		t.Fatal("building another shape kept the first shape's rows")
	}
	again := sharing(t, cfg, 1)[0]
	if _, now := currentRows(); now == rows || deepSum(now) != sum {
		t.Fatal("the first shape built twice again did not prepare the same rows afresh")
	}
	sameAnswers(t, again)
}

// TestSharedRowsRaceOnDemand: goroutines query two Sims of one shape inside
// their shims' regions while another goroutine's queries outside them
// sweep rows in full on demand on the first Sim, whose first such query
// swaps in its own copy of the rows. Every answer equals a fresh sweep's,
// and the second Sim sweeps nothing. Run it with -race.
func TestSharedRowsRaceOnDemand(t *testing.T) {
	sims := sharing(t, Config{Kind: FatTree, Size: 8, Seed: 5}, 2)
	c := freshCluster(t, sims[0].Config)
	fresh, err := cost.New(c, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	want := func(a, b *dcn.Rack) float64 { return fresh.RackPairCost(c.Racks[a.Index], c.Racks[b.Index]) }
	check := func(s *Sim, a, b *dcn.Rack) {
		if got, w := s.Model.RackPairCost(a, b), want(a, b); math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("RackPairCost(%d, %d) = %v, a fresh sweep %v", a.Index, b.Index, got, w)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, s := range sims {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for pass := 0; pass < 20; pass++ {
					for _, shim := range s.Shims {
						for _, r := range shim.NeighborRacks() {
							check(s, shim.Rack, r)
						}
					}
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		racks := sims[0].Cluster.Racks
		for i, a := range racks {
			check(sims[0], a, racks[len(racks)-1-i]) // across the fabric
		}
	}()
	close(start)
	wg.Wait()
	if _, late := sims[0].Model.SweepCounts(); late == 0 {
		t.Fatal("no query swept a row on demand")
	}
	if _, late := sims[1].Model.SweepCounts(); late != 0 {
		t.Fatalf("the Sim queried inside its regions swept %d rows on demand", late)
	}
}

// fingerprint hashes what a Sim's writes reach: every edge's endpoints and
// bandwidth, every host's residents, and every shim's neighbour racks. It
// fails t when a shim's neighbour is not a rack of the Sim's own cluster.
func fingerprint(t *testing.T, s *Sim) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(xs ...uint64) {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, x))
		}
	}
	g := s.Cluster.Graph
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.Edges(u) {
			put(uint64(e.ID), uint64(e.To), math.Float64bits(e.Bandwidth))
		}
	}
	for _, host := range s.Cluster.Hosts() {
		put(uint64(len(host.Residents())))
		for _, vm := range host.Residents() {
			put(uint64(vm.ID), math.Float64bits(vm.Capacity))
		}
	}
	for _, shim := range s.Shims {
		put(uint64(shim.Rack.Index), uint64(len(shim.NeighborRacks())))
		for _, r := range shim.NeighborRacks() {
			if s.Cluster.Racks[r.Index] != r {
				t.Fatalf("shim %d's neighbour rack %d is not its cluster's", shim.Rack.Index, r.Index)
			}
			put(uint64(r.Index))
		}
	}
	return h.Sum64()
}

// TestStampedSimsShareNoMutableMemory: Sims stamped from one shape's
// template, and one stamped after a Sim of another shape dropped that
// template and the shape built twice rebuilt it, each own their fabric,
// resident lists and shim regions: a bandwidth set, a move and an added VM
// on one leave every other Sim's edges, residents and shim neighbours as
// they were.
func TestStampedSimsShareNoMutableMemory(t *testing.T) {
	cfg := Config{Kind: FatTree, Size: 8, Seed: 1}
	sims := sharing(t, cfg, 2)
	other, err := Build(Config{Kind: BCube, Size: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sims = append(sims, sharing(t, cfg, 1)...)
	sims = append(sims, other)
	for _, s := range sims {
		s.PopulateHotPods(0.5, 0.85, 0.35)
	}
	for i, s := range sims[:3] {
		before := make([]uint64, len(sims))
		for j, o := range sims {
			before[j] = fingerprint(t, o)
		}
		g := s.Cluster.Graph
		g.SetBandwidthAt(0, g.EdgeAt(0).Bandwidth/2)
		hosts := s.Cluster.Hosts()
		vm := hosts[0].Residents()[0]
		moved := false
		for _, dst := range hosts[1:] {
			if moved = s.Cluster.Move(vm, dst) == nil; moved {
				break
			}
		}
		if !moved {
			t.Fatal("no host took a VM")
		}
		if _, err := s.Cluster.AddVM(hosts[len(hosts)-1], 1, 1, false); err != nil {
			t.Fatal(err)
		}
		for j, o := range sims {
			if changed := fingerprint(t, o) != before[j]; changed != (i == j) {
				t.Fatalf("writes to Sim %d: Sim %d changed %v", i, j, changed)
			}
		}
	}
}
