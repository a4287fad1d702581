package migrate

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/obs"
)

// The conservation test drives both migration transports over seeded
// random clusters and checks, after every call, what must hold whatever
// the path: every VM a call was given ends placed or unplaced and the
// result says which; the result counters are the per-kind event counts;
// and the cluster's own invariants hold, so every VM is on exactly one host
// and no host holds more than its capacity.

type consPath int

const (
	consMigrate consPath = iota
	consDistributed
)

func (p consPath) String() string {
	return [...]string{"migrate", "distributed"}[p]
}

// consCell is one point of the grid a scenario runs in.
type consCell struct {
	path consPath
	seed int64
}

func (c consCell) String() string {
	return fmt.Sprintf("%s/seed=%d", c.path, c.seed)
}

// consTotals counts, over every scenario, how often each branch under
// test was reached, so a grid that stops exercising one fails loudly.
type consTotals struct {
	acks, rejects, unplaced int
}

// consScenario is one cell's cluster plus the VMs the test already fed to
// a call.
type consScenario struct {
	cell    consCell
	fx      *fixture
	rec     *obs.Recorder
	events  []obs.Event // every event rec recorded; events[i].Seq == i+1
	handled map[int]bool
	totals  *consTotals
}

func newConsScenario(t *testing.T, cell consCell, totals *consTotals) *consScenario {
	t.Helper()
	sc := &consScenario{cell: cell, fx: newFixture(t, 4, 2), handled: map[int]bool{}, totals: totals}
	sc.rec = recordTo(t, &sc.events)
	// Hosts filled to 55–100 %, a quarter of the VMs delay-sensitive, three
	// in ten alerted at urgent or critical, three in ten at watch: tight
	// enough that rejections and leftovers both occur.
	rng := rand.New(rand.NewSource(cell.seed))
	c := sc.fx.cluster
	var all []*dcn.VM
	for _, h := range c.Hosts() {
		target := (0.55 + 0.45*rng.Float64()) * h.Capacity
		for h.Used() < target {
			capy := 8 + 27*rng.Float64()
			if capy > h.Free() {
				break
			}
			vm, err := c.AddVM(h, capy, 1+9*rng.Float64(), rng.Float64() < 0.25)
			if err != nil {
				t.Fatal(err)
			}
			switch r := rng.Float64(); {
			case r < 0.3:
				vm.Alert = 0.8 + 0.2*rng.Float64()
			case r < 0.6:
				vm.Alert = 0.3 + 0.4*rng.Float64()
			}
			if len(all) > 0 && rng.Float64() < 0.1 {
				if other := all[rng.Intn(len(all))]; other.Host() != h {
					c.Deps.AddDependency(vm.ID, other.ID)
				}
			}
			all = append(all, vm)
		}
	}
	return sc
}

// admission is a pure REQUEST policy that vetoes roughly one pair in
// seven, so policy rejections occur on every path.
func consAdmission(vm *dcn.VM, dst *dcn.Host) bool { return (vm.ID+3*dst.ID)%7 != 0 }

// alertedIn returns the not-yet-handled urgent-or-critical VMs hosted in
// the rack, in ID order, and marks them handled.
func (sc *consScenario) alertedIn(r *dcn.Rack) []*dcn.VM {
	var out []*dcn.VM
	for _, vm := range r.VMs() {
		if vm.Alert >= alert.UrgentAt && !sc.handled[vm.ID] {
			out = append(out, vm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for _, vm := range out {
		sc.handled[vm.ID] = true
	}
	return out
}

func (sc *consScenario) shims(t *testing.T) []*Shim {
	t.Helper()
	var shims []*Shim
	for _, r := range sc.fx.cluster.Racks {
		s, err := NewShim(sc.fx.cluster, sc.fx.model, r, DefaultParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		shims = append(shims, s)
	}
	return shims
}

// run drives the cell's path for one management round, checking every
// call.
func (sc *consScenario) run(t *testing.T) {
	t.Helper()
	switch sc.cell.path {
	case consMigrate:
		sc.runMigrate(t)
	case consDistributed:
		sc.runDistributed(t)
	}
}

// runMigrate relocates each rack's alerted VMs into its shim's region, one
// Migrate call per rack.
func (sc *consScenario) runMigrate(t *testing.T) {
	c, m := sc.fx.cluster, sc.fx.model
	for i, shim := range sc.shims(t) {
		inputs := sc.alertedIn(shim.Rack)
		if len(inputs) == 0 {
			continue
		}
		before := sc.rec.Seq()
		res, err := Migrate(c, m, inputs, shim.regionHosts(true), MigrationOptions{
			ForbidSameRack: sc.cell.seed%2 == 0,
			Policy:         consAdmission,
			Recorder:       sc.rec,
			Shim:           shim.Rack.Index,
		})
		if err != nil {
			t.Fatalf("%s: Migrate shim %d: %v", sc.cell, i, err)
		}
		sc.check(t, fmt.Sprintf("shim %d", i), inputs, before, res)
	}
}

// runDistributed relocates every rack's alerted VMs in one protocol run.
func (sc *consScenario) runDistributed(t *testing.T) {
	c := sc.fx.cluster
	shims := sc.shims(t)
	sets := make([][]*dcn.VM, len(shims))
	var inputs []*dcn.VM
	for i, shim := range shims {
		sets[i] = sc.alertedIn(shim.Rack)
		inputs = append(inputs, sets[i]...)
	}
	// Odd seeds run over a lossy, duplicating, reordering fabric, so
	// timeouts, retransmissions and the fallback ladder take part.
	var busOpts comm.Options
	if sc.cell.seed%2 == 1 {
		inj, err := faults.New(faults.Plan{Seed: sc.cell.seed, Drop: 0.15, DupRate: 0.2, ReorderRate: 0.2, Jitter: 1})
		if err != nil {
			t.Fatal(err)
		}
		busOpts.Injector = inj
	}
	bus := comm.NewBus(busOpts)
	before := sc.rec.Seq()
	res, err := DistributedVMMigration(c, sc.fx.model, bus, shims, sets, DistOptions{
		Seed:          sc.cell.seed,
		RequestPolicy: consAdmission,
		Recorder:      sc.rec,
	})
	if err != nil {
		t.Fatalf("%s: DistributedVMMigration: %v", sc.cell, err)
	}
	sc.check(t, "run", inputs, before, &res.Tally)
}

// since returns the events recorded after sequence number seq.
func (sc *consScenario) since(seq uint64) []obs.Event {
	return sc.events[seq:]
}

// check replays one call's events against what it reported and the
// cluster.
func (sc *consScenario) check(t *testing.T, call string, inputs []*dcn.VM, before uint64, out *Tally) {
	t.Helper()
	c := sc.fx.cluster
	cell := sc.cell
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf("%s %s: %s", cell, call, fmt.Sprintf(format, args...))
	}

	// last is each VM's final outcome event in this call.
	last := map[int]obs.Event{}
	count := map[obs.Kind]int{}
	for _, e := range sc.since(before) {
		count[e.Kind]++
		switch e.Kind {
		case obs.KindAck, obs.KindUnplaced:
			last[e.VM] = e
		}
	}

	unplaced := map[int]bool{}
	for _, vm := range out.Unplaced {
		if unplaced[vm.ID] {
			fail("VM %d reported unplaced twice", vm.ID)
		}
		unplaced[vm.ID] = true
	}
	for _, vm := range inputs {
		e, settled := last[vm.ID]
		if unplaced[vm.ID] != (settled && e.Kind == obs.KindUnplaced) {
			fail("VM %d: in Unplaced = %v but its last outcome event is %q", vm.ID, unplaced[vm.ID], e.Kind)
		}
		switch {
		case !settled:
			// The one known hole, Alg. 4's own: the protocol may run out of
			// rounds with a REQUEST in flight whose move the destination has
			// applied; the VM then sits at its destination, reported nowhere.
			// TestChaosUnreportedMoves (internal/sim) pins its count on the
			// bench's shape; closing it is ROADMAP item 1b.
			if cell.path != consDistributed {
				fail("VM %d was given to the call and ended neither placed nor unplaced", vm.ID)
			}
		case e.Kind == obs.KindAck && vm.Host().ID != e.Host:
			fail("VM %d acknowledged onto host %d but sits on host %d", vm.ID, e.Host, vm.Host().ID)
		}
	}

	if got := len(out.Migrations); got != count[obs.KindAck] {
		fail("%d migrations, %d ack events", got, count[obs.KindAck])
	}
	if out.Rejected != count[obs.KindReject] {
		fail("Rejected = %d, %d reject events", out.Rejected, count[obs.KindReject])
	}
	if len(out.Unplaced) != count[obs.KindUnplaced] {
		fail("%d unplaced, %d unplaced events", len(out.Unplaced), count[obs.KindUnplaced])
	}
	// Every VM on exactly one host, none over capacity, no two dependent
	// VMs sharing a host.
	if err := c.CheckInvariants(); err != nil {
		fail("%v", err)
	}

	sc.totals.acks += count[obs.KindAck]
	sc.totals.rejects += count[obs.KindReject]
	sc.totals.unplaced += count[obs.KindUnplaced]
}

// TestMigrationConservation runs the grid: two transports × 144 seeds.
func TestMigrationConservation(t *testing.T) {
	const seeds = 144
	var totals consTotals
	for _, path := range []consPath{consMigrate, consDistributed} {
		for seed := int64(1); seed <= seeds; seed++ {
			newConsScenario(t, consCell{path: path, seed: seed}, &totals).run(t)
		}
	}
	t.Logf("reached: %+v", totals)
	if totals.acks == 0 || totals.rejects == 0 || totals.unplaced == 0 {
		t.Errorf("the grid no longer reaches every branch under test: %+v", totals)
	}
}
