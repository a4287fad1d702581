package ingest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"sheriff/internal/metrics"
	"sheriff/internal/obs"
	"sheriff/internal/traces"
)

// scriptClock returns the given instants in order, then keeps returning
// the last one.
func scriptClock(at ...time.Duration) func() time.Time {
	base := time.Unix(1700000000, 0)
	var mu sync.Mutex
	i := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := base.Add(at[i])
		if i < len(at)-1 {
			i++
		}
		return t
	}
}

// queueView is a shard queue without the arrival stamps, which differ
// between a batch and a loop of single offers by construction.
func queueView(s *Service) string {
	var out []string
	for _, sh := range s.shard {
		for _, q := range sh.queue {
			out = append(out, fmt.Sprintf("%d:%d:%v:%d", sh.rack, q.slot, q.v, q.qv))
		}
	}
	return fmt.Sprint(out)
}

func slotView(s *Service) string {
	var out []slot
	for _, sh := range s.shard {
		out = append(out, sh.slots...)
	}
	return fmt.Sprintf("%+v", out)
}

func counterView(s *Service) string {
	st := s.Stats()
	return fmt.Sprintf("offered %d accepted %d dropped %d processed %d alerts %d pending %d waits %d",
		st.Offered, st.Accepted, st.Dropped, st.Processed, st.Alerts, st.Pending, st.Latency.Count())
}

// TestBatchEqualsOneAtATime is the intake contract: OfferBatch over a
// sequence leaves what Offer in a loop leaves — queue order, slots,
// alerts, counters, drop events — including a batch that fills a shard
// mid-run and one with an unknown VM in the middle.
func TestBatchEqualsOneAtATime(t *testing.T) {
	p := func(cpu float64) traces.Profile { return traces.Profile{CPU: cpu, Mem: 0.3} }
	batches := [][]Update{
		// Runs of every length, shards interleaved, VMs out of order.
		{{VM: 2, Profile: p(0.95)}, {VM: 0, Profile: p(0.97)}, {VM: 4, Profile: p(0.2)}, {VM: 3, Profile: p(0.99)}, {VM: 1, Profile: p(0.5)}},
		// Rack 0 (limit 6) fills in the middle of its second run.
		{{VM: 0, Profile: p(0.98)}, {VM: 2, Profile: p(0.99)}, {VM: 3, Profile: p(0.99)}, {VM: 1, Profile: p(0.6)}, {VM: 1, Profile: p(0.7)},
			{VM: 0, Profile: p(0.1)}, {VM: 2, Profile: p(0.1)}, {VM: 4, Profile: p(0.99)}, {VM: 1, Profile: p(0.1)}},
		// Unknown VM mid-batch: the prefix stays, the rest is never offered.
		{{VM: 1, Profile: p(0.4)}, {VM: 4, Profile: p(0.99)}, {VM: 77, Profile: p(0.9)}, {VM: 0, Profile: p(0.9)}},
		{{VM: -1}},
		{},
	}
	for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
		t.Run(mode.String(), func(t *testing.T) {
			type side struct {
				svc   *Service
				drops []string
			}
			mk := func() *side {
				rec, err := obs.New(obs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sd := &side{svc: build(t, Options{QueueLimit: 6, Mode: mode, Recorder: rec})}
				if _, err := sd.svc.Subscribe(obs.Func(func(e obs.Event) error {
					if e.Phase == "drop" {
						sd.drops = append(sd.drops, fmt.Sprintf("%d/%d", e.Shim, e.VM))
					}
					return nil
				})); err != nil {
					t.Fatal(err)
				}
				return sd
			}
			batch, loop := mk(), mk()
			for round := 0; round < 3; round++ {
				for bi, b := range batches {
					before := batch.svc.Stats().Offered
					nb, errb := batch.svc.OfferBatch(b)
					nl := 0
					var errl error
					for _, u := range b {
						ok, err := loop.svc.Offer(u)
						if err != nil {
							errl = err
							break
						}
						if ok {
							nl++
						}
					}
					if nb != nl || fmt.Sprint(errb) != fmt.Sprint(errl) {
						t.Fatalf("round %d batch %d: OfferBatch = %d, %v; Offer loop = %d, %v", round, bi, nb, errb, nl, errl)
					}
					if got := batch.svc.Stats().Offered - before; bi == 2 && (errb == nil || got != 2) {
						t.Fatalf("unknown VM mid-batch: offered %d, err %v; want the 2-update prefix and an error", got, errb)
					}
				}
				if a, b := queueView(batch.svc), queueView(loop.svc); a != b {
					t.Fatalf("round %d queues differ:\n batch %s\n loop  %s", round, a, b)
				}
				if st := batch.svc.Stats(); st.Offered != st.Accepted+st.Dropped || st.Pending != int(st.Accepted-st.Processed) {
					t.Fatalf("round %d conservation: %+v", round, st)
				}
				batch.svc.ProcessPending()
				loop.svc.ProcessPending()
				pa, pb := batch.svc.Poll(), loop.svc.Poll()
				if fmt.Sprint(pa) != fmt.Sprint(pb) {
					t.Fatalf("round %d alerts differ:\n batch %+v\n loop  %+v", round, pa, pb)
				}
				for i := 1; i < len(pa); i++ {
					if pa[i-1].Rack > pa[i].Rack || (pa[i-1].Rack == pa[i].Rack && pa[i-1].VM > pa[i].VM) {
						t.Fatalf("round %d alerts not sorted by (rack, VM): %+v", round, pa)
					}
				}
				if round == 0 && len(pa) < 3 {
					t.Fatalf("script raised %d alerts, want several on rack 0 to sort: %+v", len(pa), pa)
				}
			}
			if a, b := slotView(batch.svc), slotView(loop.svc); a != b {
				t.Fatalf("slots differ:\n batch %s\n loop  %s", a, b)
			}
			if a, b := counterView(batch.svc), counterView(loop.svc); a != b {
				t.Fatalf("counters differ:\n batch %s\n loop  %s", a, b)
			}
			if a, b := fmt.Sprint(batch.drops), fmt.Sprint(loop.drops); a != b || len(batch.drops) == 0 {
				t.Fatalf("drop events differ (or none fired):\n batch %s\n loop  %s", a, b)
			}
		})
	}
}

// TestQueueGrowthStopsAtLimit: a queue starts at its VM count and grows
// to its high-water mark, never past a QueueLimit that is neither the
// initial capacity nor a power of two; at the mark a full cycle does not
// allocate.
func TestQueueGrowthStopsAtLimit(t *testing.T) {
	const limit = 37
	s := build(t, Options{QueueLimit: limit})
	if c := cap(s.shard[0].queue); c != 3 {
		t.Fatalf("rack 0 queue starts with room for %d, want its 3 VMs", c)
	}
	flood := make([]Update, 100)
	for i := range flood {
		flood[i] = Update{VM: i % 3, Profile: cool()}
	}
	cycle := func() {
		n, err := s.OfferBatch(flood)
		if err != nil || n != limit {
			t.Fatalf("accepted %d, %v; want exactly QueueLimit = %d", n, err, limit)
		}
		if got := len(s.shard[0].queue); got != limit {
			t.Fatalf("queue holds %d, want %d", got, limit)
		}
		// The drain itself, then the wait fold ProcessPending runs after
		// its shard loop.
		run := waitRun{now: int64(s.opts.Clock().Sub(s.epoch))}
		if got, _ := s.drainShard(s.shard[0], &run); got != limit {
			t.Fatalf("processed %d, want %d", got, limit)
		}
		if run.n != limit {
			t.Fatalf("the drain left %d updates pending under one stamp, want all %d", run.n, limit)
		}
		s.foldWait(&run)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("a cycle at the high-water mark allocates %.1f, want 0", allocs)
	}
	st := s.Stats()
	// drainShard leaves the service's counters to ProcessPending, so the
	// latency summary is held to the updates the cycles drained.
	if st.Accepted != 52*limit || st.Dropped != 52*(100-limit) || st.Latency.Count() != 52*limit {
		t.Fatalf("after 52 cycles: %+v", st)
	}
}

// TestLatencyWeighsEveryUpdate: wait is accounted per run of equal
// arrival stamps, weighted by the run's length, so the summary counts
// updates, not batches.
func TestLatencyWeighsEveryUpdate(t *testing.T) {
	ms := time.Millisecond
	// New reads the epoch, then: batch of 3, batch of 2, the drain.
	s := build(t, Options{Clock: scriptClock(0, 1*ms, 2*ms, 3*ms)})
	three := []Update{{VM: 0, Profile: cool()}, {VM: 1, Profile: cool()}, {VM: 3, Profile: cool()}}
	two := []Update{{VM: 0, Profile: cool()}, {VM: 4, Profile: cool()}}
	for _, b := range [][]Update{three, two} {
		if _, err := s.OfferBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	s.ProcessPending()
	st := s.Stats()
	lat := st.Latency
	if lat.Count() != 5 || lat.Min() != 0.001 || lat.Max() != 0.002 || math.Abs(lat.Mean()-0.0016) > 1e-12 {
		t.Fatalf("latency %s, want 3 waits of 2 ms and 2 of 1 ms", lat.String())
	}
	if math.Abs(st.LatencyP99-0.002) > 0.125*0.002 {
		t.Fatalf("p99 %v, want 2 ms within the histogram's 12.5 %%", st.LatencyP99)
	}
}

// TestLatencyClampedAtZero: a batch stamped after ProcessPending read its
// clock, but drained by that pass, waited no time — not negative time.
func TestLatencyClampedAtZero(t *testing.T) {
	ms := time.Millisecond
	s := build(t, Options{Clock: scriptClock(0, 10*ms, 5*ms)}) // epoch, offer, drain
	if _, err := s.Offer(Update{VM: 0, Profile: cool()}); err != nil {
		t.Fatal(err)
	}
	s.ProcessPending()
	st := s.Stats()
	if st.Latency.Count() != 1 || st.Latency.Min() != 0 || st.LatencyP99 < 0 {
		t.Fatalf("latency %s p99 %v, want one wait of exactly 0", st.Latency.String(), st.LatencyP99)
	}
}

// TestDropEventsOutsideShardLock: a subscriber's sink runs on the offer
// path for every drop, so it must never run under the shard's lock.
func TestDropEventsOutsideShardLock(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := build(t, Options{QueueLimit: 2, Recorder: rec})
	drops := 0
	if _, err := s.Subscribe(obs.Func(func(e obs.Event) error {
		if e.Phase == "drop" {
			drops++
			if !s.shard[e.Shim].mu.TryLock() {
				t.Errorf("drop event for VM %d delivered under shard %d's lock", e.VM, e.Shim)
				return nil
			}
			s.shard[e.Shim].mu.Unlock()
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	batch := []Update{{VM: 0}, {VM: 1}, {VM: 2}, {VM: 0}, {VM: 3}, {VM: 1}}
	if n, err := s.OfferBatch(batch); err != nil || n != 3 {
		t.Fatalf("accepted %d, %v; want 3", n, err)
	}
	if drops != 3 {
		t.Fatalf("%d drop events, want 3", drops)
	}
}

// TestConcurrentOffersConserve hammers one service from several offering
// goroutines against a ProcessPending loop and a Poll loop of their own
// (run it under -race). Queues are small, so drops happen; conservation
// must hold, every alert raised must be polled exactly once, and every
// VM's observation count must equal its offers minus its drop events.
func TestConcurrentOffersConserve(t *testing.T) {
	const (
		racks, perRack = 6, 4
		producers      = 4
		rounds         = 300
	)
	vmsByRack := make([][]int, racks)
	for r := range vmsByRack {
		for v := 0; v < perRack; v++ {
			vmsByRack[r] = append(vmsByRack[r], r*perRack+v)
		}
	}
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(vmsByRack, Options{QueueLimit: 5, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var dropMu sync.Mutex
	dropped := make([]int, racks*perRack)
	if _, err := s.Subscribe(obs.Func(func(e obs.Event) error {
		if e.Phase == "drop" {
			dropMu.Lock()
			dropped[e.VM]++
			dropMu.Unlock()
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}

	offered := make([][]int, producers) // per producer, per VM
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		offered[g] = make([]int, racks*perRack)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := traces.NewWorkloadGen(24, int64(g))
			batch := make([]Update, 0, racks*perRack)
			for round := 0; round < rounds; round++ {
				// Rack-major runs of varying length, starting rack rotating.
				batch = batch[:0]
				for r := 0; r < racks; r++ {
					rack := (r + g + round) % racks
					for v := 0; v <= (round+g)%perRack; v++ {
						batch = append(batch, Update{VM: rack*perRack + v, Profile: gen.Next()})
					}
				}
				for _, u := range batch {
					offered[g][u.VM]++
				}
				if _, err := s.OfferBatch(batch); err != nil {
					t.Error(err)
					return
				}
				if round%7 == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	polledBy := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				polledBy <- n
				return
			default:
			}
			n += len(s.Poll())
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s.ProcessPending()
		s.Stats()
	}
	polled := <-polledBy
	s.ProcessPending()
	polled += len(s.Poll())

	st := s.Stats()
	if st.Offered != st.Accepted+st.Dropped || st.Processed != st.Accepted || st.Pending != 0 {
		t.Fatalf("conservation: %+v", st)
	}
	if st.Latency.Count() != int(st.Processed) || uint64(polled) != st.Alerts {
		t.Fatalf("latency counts %d waits for %d processed; polled %d of %d alerts", st.Latency.Count(), st.Processed, polled, st.Alerts)
	}
	if st.Dropped == 0 {
		t.Fatal("hammer never filled a queue; drops untested")
	}
	var total uint64
	for vm := range dropped {
		want := -dropped[vm]
		for g := range offered {
			want += offered[g][vm]
		}
		l := s.vmLoc[vm]
		if got := s.shard[l.shard].slots[l.slot].seen; got != want {
			t.Errorf("VM %d observed %d updates, accepted %d", vm, got, want)
		}
		total += uint64(want)
	}
	if total != st.Accepted {
		t.Fatalf("per-VM accepted sums to %d, counter says %d", total, st.Accepted)
	}
}

// TestServiceFootprint holds construction to what the service carries:
// the end-to-end harness's ls1000-calm shape (1000 racks × 8 VMs, default
// Options, so QueueLimit 4096) retains about 1 MB, one table entry, slot
// and first queue entry per VM and under a hundred bytes a shard. Queues
// preallocated at the limit took 261 KB a rack, 251 MB in all; a wait
// histogram in every shard, 2.1 MB.
func TestServiceFootprint(t *testing.T) {
	vmsByRack := make([][]int, 1000)
	for r := range vmsByRack {
		for v := 0; v < 8; v++ {
			vmsByRack[r] = append(vmsByRack[r], r*8+v)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(vmsByRack, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const budget = 3 << 19 // 1.5 MiB
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if got > budget {
		t.Fatalf("New retains %d bytes for 1000 racks × 8 VMs, budget %d", got, budget)
	}
	t.Logf("New retains %d bytes for 1000 racks × 8 VMs", got)
	runtime.KeepAlive(s)
}

// TestPollSkipsQuietShards: Poll takes the lock of a shard only when a
// drain has raised an alert there since the last Poll. With every quiet
// shard's lock held by the test, a Poll that touched one would block.
func TestPollSkipsQuietShards(t *testing.T) {
	s := build(t, Options{})
	// Three periods of the same hot profile on VM 3 (shard 1): the Holt
	// prediction crosses the threshold once, the latch holds it after.
	for i := 0; i < 3; i++ {
		if _, err := s.OfferBatch([]Update{{VM: 0, Profile: cool()}, {VM: 3, Profile: hot()}}); err != nil {
			t.Fatal(err)
		}
		s.ProcessPending()
	}
	poll := func(quiet ...int) []Alert {
		t.Helper()
		for _, i := range quiet {
			s.shard[i].mu.Lock()
		}
		defer func() {
			for _, i := range quiet {
				s.shard[i].mu.Unlock()
			}
		}()
		done := make(chan []Alert, 1)
		go func() { done <- s.Poll() }()
		select {
		case got := <-done:
			return got
		case <-time.After(5 * time.Second):
			t.Fatalf("Poll blocked on a quiet shard's lock (held: %v)", quiet)
			return nil
		}
	}
	if got := poll(0, 2); len(got) != 1 || got[0].VM != 3 || got[0].Rack != 1 {
		t.Fatalf("Poll = %+v, want VM 3's one alert on rack 1", got)
	}
	if got := poll(0, 1, 2); len(got) != 0 {
		t.Fatalf("second Poll = %+v, want nothing", got)
	}
	// A drain that raises nothing leaves the shard quiet.
	if _, err := s.OfferBatch([]Update{{VM: 3, Profile: hot()}, {VM: 1, Profile: cool()}}); err != nil {
		t.Fatal(err)
	}
	s.ProcessPending()
	if got := poll(0, 1, 2); len(got) != 0 {
		t.Fatalf("Poll after a latched drain = %+v, want nothing", got)
	}
}

// waitOracle recomputes the service's queue-wait statistics the slow way:
// every drained update's wait observed on its own.
type waitOracle struct {
	sum  metrics.Summary
	hist metrics.LogHistogram
}

// observe adds n updates that waited ns nanoseconds, zero for a wait that
// reads negative.
func (o *waitOracle) observe(ns int64, n int) {
	ns = max(ns, 0)
	for range n {
		o.sum.Observe(time.Duration(ns).Seconds())
		o.hist.ObserveN(ns, 1)
	}
}

// check holds st's latency to the recomputation: count, min, max and p99
// exactly, the mean to 1e-12 relative (the service folds one run per
// distinct stamp, so its Welford sums round in a different order).
func (o *waitOracle) check(t *testing.T, tag string, st Stats) {
	t.Helper()
	got, want := &st.Latency, &o.sum
	if got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("%s: latency %s, want %s", tag, got.String(), want.String())
	}
	p99 := 0.0
	if want.Count() > 0 {
		p99 = o.hist.Quantile(0.99) / 1e9
	}
	if st.LatencyP99 != p99 {
		t.Fatalf("%s: p99 %v, want %v", tag, st.LatencyP99, p99)
	}
	if m := want.Mean(); math.Abs(got.Mean()-m) > 1e-12*math.Abs(m) {
		t.Fatalf("%s: mean %v, want %v", tag, got.Mean(), m)
	}
}

// TestWaitAccountingMatchesPerUpdate interleaves offers at varied stamps
// (a clock that also steps back, so some waits read negative), drains and
// Stats reads at random, with queues small enough to tail-drop, and holds
// every Stats to the per-update recomputation. Between drains there are
// often several stamps, interleaved across shards, so a pass folds many
// runs.
func TestWaitAccountingMatchesPerUpdate(t *testing.T) {
	const limit = 10
	base := time.Unix(1700000000, 0)
	var now time.Duration
	s := build(t, Options{QueueLimit: limit, Clock: func() time.Time { return base.Add(now) }})
	rng := rand.New(rand.NewPCG(5, 7))
	shardOf := []int{0, 0, 0, 1, 1} // VM → shard, as build partitions them
	var pending [2][]int64          // the stamps each shard's queue holds
	var o waitOracle
	for op := 0; op < 3000; op++ {
		// Mostly forward, sometimes back by up to 2 ms.
		now += time.Duration(rng.IntN(3000)-600) * time.Microsecond
		switch k := rng.IntN(10); {
		case k < 8:
			batch := make([]Update, 1+rng.IntN(6))
			for i := range batch {
				batch[i] = Update{VM: rng.IntN(5), Profile: cool()}
			}
			if _, err := s.OfferBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, u := range batch {
				if q := &pending[shardOf[u.VM]]; len(*q) < limit {
					*q = append(*q, int64(now))
				}
			}
		case k < 9:
			s.ProcessPending()
			for i, q := range pending {
				for _, at := range q {
					o.observe(int64(now)-at, 1)
				}
				pending[i] = q[:0]
			}
		default:
			o.check(t, fmt.Sprintf("op %d", op), s.Stats())
		}
	}
	s.ProcessPending()
	for _, q := range pending {
		for _, at := range q {
			o.observe(int64(now)-at, 1)
		}
	}
	st := s.Stats()
	if st.Dropped == 0 || st.Latency.Count() < 1000 {
		t.Fatalf("the script dropped %d and drained %d; want drops and a long record", st.Dropped, st.Latency.Count())
	}
	o.check(t, "end", st)
}

// TestWaitAccountingConcurrentOffers: producers offer at once, each batch
// at a stamp of its own, so a shard's queue interleaves stamps, while a
// reader calls Stats throughout (run it under -race). Drains run between
// rounds, with the producers parked, so the clock's log tells each round's
// stamps and the drain's now, and the recomputation is exact.
func TestWaitAccountingConcurrentOffers(t *testing.T) {
	const (
		racks, perRack = 6, 4
		producers      = 4
		rounds         = 150
	)
	base := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	var tick time.Duration
	var log []time.Duration // every instant the clock handed out, in order
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		tick += time.Duration(1+len(log)*7919%997) * time.Microsecond
		log = append(log, tick)
		return base.Add(tick)
	}
	vmsByRack := make([][]int, racks)
	for r := range vmsByRack {
		for v := 0; v < perRack; v++ {
			vmsByRack[r] = append(vmsByRack[r], r*perRack+v)
		}
	}
	s, err := New(vmsByRack, Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
			}
		}
	}()
	var o waitOracle
	seen := len(log) // the epoch New read
	for round := 0; round < rounds; round++ {
		size := 1 + round%9 // every producer's batch this round
		var wg sync.WaitGroup
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(g)))
				batch := make([]Update, size)
				for i := range batch {
					batch[i] = Update{VM: rng.IntN(racks * perRack), Profile: cool()}
				}
				if n, err := s.OfferBatch(batch); err != nil || n != size {
					t.Errorf("producer %d accepted %d of %d, %v", g, n, size, err)
				}
			}(g)
		}
		wg.Wait()
		s.ProcessPending()
		clockMu.Lock()
		offers, drain := log[seen:len(log)-1], log[len(log)-1]
		seen = len(log)
		clockMu.Unlock()
		if len(offers) != producers {
			t.Fatalf("round %d: %d offer stamps, want %d", round, len(offers), producers)
		}
		for _, at := range offers {
			o.observe(int64(drain-at), size)
		}
		if round%10 == 9 {
			o.check(t, fmt.Sprintf("round %d", round), s.Stats())
		}
	}
	close(stop)
	reader.Wait()
	o.check(t, "end", s.Stats())
}
