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
	"sheriff/internal/placement"
)

// The conservation test drives both migration transports over seeded
// random clusters and checks, after every call, what must hold whatever
// the path, policy or options: every VM a call was given ends placed,
// parked or unplaced and the result says which; preemption never touches
// a delay-sensitive VM, never sends a victim back where it came from and
// never exceeds its budget; the result counters are the per-kind event
// counts; and every VM in the cluster is on exactly one host, or detached
// and in a fail-queue.

// consMaxEvictions is small so that the eviction budget binds.
const consMaxEvictions = 2

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
	path    consPath
	kind    placement.Kind
	preempt bool
	queue   bool
	seed    int64
}

func (c consCell) String() string {
	return fmt.Sprintf("%s/%s/preempt=%v/queue=%v/seed=%d", c.path, c.kind, c.preempt, c.queue, c.seed)
}

func (c consCell) preemptOptions() PreemptOptions {
	return PreemptOptions{Enabled: c.preempt, MaxEvictions: consMaxEvictions}
}

// consOutcome is what one call reported, in the shape the two result
// types share.
type consOutcome struct {
	migrations  []Migration
	rejected    int
	preemptions int
	retried     int
	requeued    int
	unplaced    []*dcn.VM
}

// consTotals counts, over every scenario, how often each branch under
// test was reached, so a grid that stops exercising one fails loudly.
type consTotals struct {
	acks, rejects, preempts, rollbacks, requeues, retries, unplaced int
}

// consScenario is one cell's cluster plus what the test itself knows
// about it: which VMs it believes are parked, and which it already fed to
// a call.
type consScenario struct {
	cell    consCell
	fx      *fixture
	rec     *obs.Recorder
	pol     placement.Policy // nil for the Sheriff rule, as callers pass it
	factor  float64          // capacity multiplier the policy grants
	parked  map[int]int      // VM -> fail-queue entries holding it
	handled map[int]bool
	// stranded are victims left detached and reported unplaced, which only
	// a call without a fail-queue may do.
	stranded map[int]bool
	totals   *consTotals
}

func newConsScenario(t *testing.T, cell consCell, totals *consTotals) *consScenario {
	t.Helper()
	rec, err := obs.New(obs.Options{Ring: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	sc := &consScenario{cell: cell, fx: newFixture(t, 4, 2), rec: rec, factor: 1,
		parked: map[int]int{}, handled: map[int]bool{}, stranded: map[int]bool{}, totals: totals}
	if cell.kind != placement.Sheriff {
		if sc.pol, err = (placement.PolicyOptions{Kind: cell.kind}).New(); err != nil {
			t.Fatal(err)
		}
	}
	if cell.kind == placement.Oversub {
		sc.factor = placement.DefaultOversubFactor
	}
	// Hosts filled to 55–100 %, a quarter of the VMs delay-sensitive, three
	// in ten alerted at urgent or critical, three in ten at watch: tight
	// enough that rejections, evictions and leftovers all occur.
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
		s, err := NewShim(sc.fx.cluster, sc.fx.model, r, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		shims = append(shims, s)
	}
	return shims
}

func (sc *consScenario) newQueue(t *testing.T) *RetryQueue {
	t.Helper()
	if !sc.cell.queue {
		return nil
	}
	q, err := NewRetryQueue(RetryOptions{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// run drives the cell's path for two management rounds — the second with
// no fresh work, so it only drains what the first parked — checking every
// call, and finally compares the queues' real contents with the parked
// set the events implied.
func (sc *consScenario) run(t *testing.T) {
	t.Helper()
	var queues []*RetryQueue
	switch sc.cell.path {
	case consMigrate:
		queues = sc.runMigrate(t)
	case consDistributed:
		queues = sc.runDistributed(t)
	}
	inQueue := map[int]int{}
	for _, q := range queues {
		for _, e := range q.TakeAll() {
			inQueue[e.VM.ID]++
		}
	}
	for id, n := range sc.parked {
		if inQueue[id] != n {
			t.Errorf("%s: events park VM %d %d times, the fail-queues hold it %d times", sc.cell, id, n, inQueue[id])
		}
	}
	for id, n := range inQueue {
		if sc.parked[id] != n {
			t.Errorf("%s: the fail-queues hold VM %d %d times, events park it %d times", sc.cell, id, n, sc.parked[id])
		}
	}
}

func (sc *consScenario) runMigrate(t *testing.T) []*RetryQueue {
	c, m := sc.fx.cluster, sc.fx.model
	shims := sc.shims(t)
	queues := make([]*RetryQueue, len(shims))
	for i := range queues {
		queues[i] = sc.newQueue(t)
	}
	for round := 0; round < 2; round++ {
		for i, shim := range shims {
			var inputs []*dcn.VM
			if round == 0 {
				inputs = sc.alertedIn(shim.Rack)
			}
			if len(inputs) == 0 && queues[i].Len() == 0 {
				continue
			}
			before := sc.rec.Seq()
			res, err := Migrate(c, m, inputs, shim.regionHosts(true), MigrationOptions{
				ForbidSameRack: sc.cell.seed%2 == 0,
				Policy:         consAdmission,
				Recorder:       sc.rec,
				Shim:           shim.Rack.Index,
				Placement:      sc.pol,
				Preempt:        sc.cell.preemptOptions(),
				Queue:          queues[i],
			})
			if err != nil {
				t.Fatalf("%s: Migrate shim %d: %v", sc.cell, i, err)
			}
			sc.check(t, fmt.Sprintf("round %d shim %d", round, i), inputs, before, consOutcome{
				migrations: res.Migrations, rejected: res.Rejected, preemptions: res.Preemptions,
				retried: res.Retried, requeued: res.Requeued, unplaced: res.Unplaced,
			})
			if len(res.Evicted) != res.Preemptions {
				t.Errorf("%s round %d shim %d: %d VMs listed evicted, Preemptions = %d",
					sc.cell, round, i, len(res.Evicted), res.Preemptions)
			}
		}
	}
	return queues
}

func (sc *consScenario) runDistributed(t *testing.T) []*RetryQueue {
	c := sc.fx.cluster
	shims := sc.shims(t)
	q := sc.newQueue(t)
	for round := 0; round < 2; round++ {
		if round > 0 && q.Len() == 0 {
			break
		}
		sets := make([][]*dcn.VM, len(shims))
		var inputs []*dcn.VM
		if round == 0 {
			for i, shim := range shims {
				sets[i] = sc.alertedIn(shim.Rack)
				inputs = append(inputs, sets[i]...)
			}
		}
		// Odd seeds run over a lossy, duplicating, reordering fabric, so
		// timeouts, retransmissions and the fallback ladder take part.
		busOpts := comm.Options{Seed: sc.cell.seed + int64(round)}
		if sc.cell.seed%2 == 1 {
			inj, err := faults.New(faults.Plan{Seed: sc.cell.seed, Drop: 0.15, DupRate: 0.2, ReorderRate: 0.2, Jitter: 1})
			if err != nil {
				t.Fatal(err)
			}
			busOpts.Injector = inj
		}
		bus, err := comm.NewBus(busOpts)
		if err != nil {
			t.Fatal(err)
		}
		before := sc.rec.Seq()
		res, err := DistributedVMMigration(c, sc.fx.model, bus, shims, sets, DistOptions{
			Seed:          sc.cell.seed,
			RequestPolicy: consAdmission,
			Recorder:      sc.rec,
			Placement:     placement.PolicyOptions{Kind: sc.cell.kind},
			Preempt:       sc.cell.preemptOptions(),
			Queue:         q,
		})
		if err != nil {
			t.Fatalf("%s: DistributedVMMigration: %v", sc.cell, err)
		}
		sc.check(t, fmt.Sprintf("run %d", round), inputs, before, consOutcome{
			migrations: res.Migrations, rejected: res.Rejected, preemptions: res.Preemptions,
			retried: res.Retried, requeued: res.Requeued, unplaced: res.Unplaced,
		})
	}
	return []*RetryQueue{q}
}

// since returns the events recorded after sequence number seq.
func (sc *consScenario) since(seq uint64) []obs.Event {
	var out []obs.Event
	for _, e := range sc.rec.Events() {
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}

// check replays one call's events against its result and the cluster.
func (sc *consScenario) check(t *testing.T, call string, inputs []*dcn.VM, before uint64, out consOutcome) {
	t.Helper()
	c := sc.fx.cluster
	cell := sc.cell
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf("%s %s: %s", cell, call, fmt.Sprintf(format, args...))
	}

	// last is each VM's final outcome event in this call; domain every VM
	// the call had to settle: its inputs, what it drained, its victims.
	last := map[int]obs.Event{}
	domain := map[int]bool{}
	for _, vm := range inputs {
		domain[vm.ID] = true
	}
	count := map[obs.Kind]int{}
	queueRetries := 0
	evictedFrom := map[int]map[int]bool{}
	for _, e := range sc.since(before) {
		count[e.Kind]++
		switch e.Kind {
		case obs.KindRetry:
			if e.Attrs["cause"] == "queue" {
				queueRetries++
				if sc.parked[e.VM] == 0 {
					fail("VM %d drained from a queue it was never parked in", e.VM)
				}
				sc.parked[e.VM]--
				domain[e.VM] = true
			}
		case obs.KindPreempt:
			if c.VM(e.VM).DelaySensitive {
				fail("delay-sensitive VM %d evicted from host %d", e.VM, e.Host)
			}
			if evictedFrom[e.VM] == nil {
				evictedFrom[e.VM] = map[int]bool{}
			}
			evictedFrom[e.VM][e.Host] = true
			domain[e.VM] = true
			last[e.VM] = e
		case obs.KindAck:
			// Checked where events are in causal order. The protocol does
			// not bar the host: a victim that is also a candidate with a
			// request in flight may be granted it again.
			if evictedFrom[e.VM][e.Host] && cell.path != consDistributed {
				fail("victim %d migrated back onto host %d it was evicted from", e.VM, e.Host)
			}
			last[e.VM] = e
		case obs.KindRequeue:
			sc.parked[e.VM]++
			last[e.VM] = e
		case obs.KindUnplaced:
			last[e.VM] = e
		}
	}

	// The eviction budget is per Migrate call and per protocol run.
	if n := count[obs.KindPreempt]; n > consMaxEvictions {
		fail("%d evictions, budget %d", n, consMaxEvictions)
	}

	unplaced := map[int]bool{}
	for _, vm := range out.unplaced {
		if unplaced[vm.ID] {
			fail("VM %d reported unplaced twice", vm.ID)
		}
		unplaced[vm.ID] = true
	}
	rollbacks := 0
	for id := range domain {
		vm := c.VM(id)
		e, settled := last[id]
		if unplaced[id] != (settled && e.Kind == obs.KindUnplaced) {
			fail("VM %d: in Unplaced = %v but its last outcome event is %q", id, unplaced[id], e.Kind)
		}
		switch {
		case !settled:
			// One known leak: the protocol may run out of rounds with a
			// request in flight whose move was applied; the VM then sits at
			// its destination.
			if !(cell.path == consDistributed && vm.Host() != nil) {
				fail("VM %d was given to the call and ended neither placed, parked nor unplaced", id)
			}
		case e.Kind == obs.KindAck:
			// A source records the ACK a round after the destination moved
			// the VM, so in the protocol an eviction may already have
			// followed the move the event reports.
			lagging := cell.path == consDistributed
			if vm.Host() == nil && !(lagging && evictedFrom[id] != nil) {
				fail("VM %d acknowledged onto host %d but is detached", id, e.Host)
			} else if !lagging && vm.Host().ID != e.Host {
				fail("VM %d acknowledged onto host %d but sits on host %d", id, e.Host, vm.Host().ID)
			}
		case e.Kind == obs.KindPreempt:
			fail("victim %d was evicted and never settled", id)
		case e.Kind == obs.KindUnplaced:
			// A victim that could neither land nor park is put back where it
			// was if the slot is still open; without a fail-queue to keep it,
			// it otherwise stays detached, reported unplaced.
			switch {
			case vm.Host() != nil && evictedFrom[id][vm.Host().ID]:
				rollbacks++
			case vm.Host() == nil && cell.queue:
				fail("VM %d left detached and unplaced although a fail-queue was attached", id)
			case vm.Host() == nil:
				sc.stranded[id] = true
			}
		}
	}

	if got := len(out.migrations); got != count[obs.KindAck] {
		fail("%d migrations, %d ack events", got, count[obs.KindAck])
	}
	if out.rejected != count[obs.KindReject] {
		fail("Rejected = %d, %d reject events", out.rejected, count[obs.KindReject])
	}
	if want := count[obs.KindPreempt] - rollbacks; out.preemptions != want {
		fail("Preemptions = %d, %d preempt events less %d rolled back", out.preemptions, count[obs.KindPreempt], rollbacks)
	}
	if out.retried != queueRetries {
		fail("Retried = %d, %d queue retry events", out.retried, queueRetries)
	}
	if out.requeued != count[obs.KindRequeue] {
		fail("Requeued = %d, %d requeue events", out.requeued, count[obs.KindRequeue])
	}
	if len(out.unplaced) != count[obs.KindUnplaced] {
		fail("%d unplaced, %d unplaced events", len(out.unplaced), count[obs.KindUnplaced])
	}

	// Every VM is on exactly one host, or detached and parked; no host
	// holds more than the policy's capacity rule allows.
	residents := map[int]int{}
	for _, h := range c.Hosts() {
		if h.Used() > sc.factor*h.Capacity+1e-9 {
			fail("host %d holds %.1f of %.1f", h.ID, h.Used(), sc.factor*h.Capacity)
		}
		for _, vm := range h.VMs() {
			residents[vm.ID]++
			if vm.Host() != h {
				fail("VM %d listed on host %d but points elsewhere", vm.ID, h.ID)
			}
		}
	}
	for _, vm := range c.VMs() {
		switch {
		case vm.Host() == nil && sc.parked[vm.ID] == 0 && !sc.stranded[vm.ID]:
			fail("VM %d is detached and in no fail-queue", vm.ID)
		case vm.Host() == nil && residents[vm.ID] != 0, vm.Host() != nil && residents[vm.ID] != 1:
			fail("VM %d is resident on %d hosts", vm.ID, residents[vm.ID])
		}
	}

	sc.totals.acks += count[obs.KindAck]
	sc.totals.rejects += count[obs.KindReject]
	sc.totals.preempts += count[obs.KindPreempt]
	sc.totals.rollbacks += rollbacks
	sc.totals.requeues += count[obs.KindRequeue]
	sc.totals.retries += queueRetries
	sc.totals.unplaced += count[obs.KindUnplaced]
}

// TestMigrationConservation runs the grid: two transports × {sheriff,
// best-fit, oversub} × preemption on/off × fail-queue on/off × seeds.
func TestMigrationConservation(t *testing.T) {
	const seeds = 12
	var totals consTotals
	for _, path := range []consPath{consMigrate, consDistributed} {
		for _, kind := range []placement.Kind{placement.Sheriff, placement.BestFit, placement.Oversub} {
			for _, preempt := range []bool{false, true} {
				for _, queue := range []bool{false, true} {
					for seed := int64(1); seed <= seeds; seed++ {
						cell := consCell{path: path, kind: kind, preempt: preempt, queue: queue, seed: seed}
						newConsScenario(t, cell, &totals).run(t)
					}
				}
			}
		}
	}
	t.Logf("reached: %+v", totals)
	if totals.acks == 0 || totals.rejects == 0 || totals.preempts == 0 || totals.rollbacks == 0 ||
		totals.requeues == 0 || totals.retries == 0 || totals.unplaced == 0 {
		t.Errorf("the grid no longer reaches every branch under test: %+v", totals)
	}
}
