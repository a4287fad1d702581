// Package ingest is the daemon's metric front end: a batched,
// rack-sharded intake for externally reported VM workload profiles with
// explicit backpressure and a constant-work triage forecaster per VM. Its
// drain, drop and alert events go to the recorder it is given, which
// streams them to whoever subscribed there.
//
// The intake is sharded one shard per rack, each behind its own lock, so
// offers for different racks from concurrent producers do not contend;
// ProcessPending drains the shards in rack order on its caller, which
// keeps the drain's alerts and events in a repeatable order. Backpressure
// is comm.Bus's inbox tail drop:
// each shard's pending queue has a hard cap, an offer beyond it is counted
// and dropped — never blocking the producer and never evicting an
// already accepted update. The accept/drain path costs what it carries:
// a shard's queue starts at one entry per VM and grows by append to its
// high-water mark (never past the cap), an offer resolves its VM through
// a dense table, reads each update once and takes a shard's lock once per
// run of consecutive updates for that shard, and queue wait is accounted
// per run of one arrival stamp over a whole drain pass: one fold into one
// service-wide summary, however many shards the stamp reached. Events are
// built only when a recorder is attached. Once queues are at their
// high-water mark the path is allocation-free, so a daemon ingesting
// millions of updates does not touch the allocator.
//
// Triage is a per-VM Holt (double-exponential) smoother over the
// profile's dominant component, the filter the runtime uses for cheap
// trend forecasts (smoothing.TriageAlpha and TriageBeta; under TriageQuant
// their Q16.16 snap). A profile with a NaN or ±Inf component is refused at
// the door, so no VM's smoother ever holds one. A VM whose one-step-ahead prediction
// crosses HotThreshold raises an edge-triggered pre-alert (cleared when
// the prediction recedes). It is an early, cheap reading of the signal the
// Sheriff shims act on, not their input: sheriffd polls the pre-alerts and
// counts them (its pre-alerts column and total) and hands the same updates
// to runtime.StepExternal, whose own forecasts raise the alerts that drive
// migration.
package ingest

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sheriff/internal/dcn"
	"sheriff/internal/metrics"
	"sheriff/internal/obs"
	"sheriff/internal/quant"
	"sheriff/internal/smoothing"
	"sheriff/internal/traces"
)

// Update is one externally reported observation: the VM's workload
// profile for the current collection period.
type Update = traces.Update

// Alert is one triage pre-alert: the VM's predicted next-period stress
// crossed the hot threshold.
type Alert struct {
	Rack  int
	VM    int
	Value float64 // predicted next-period dominant-component stress
}

// Options configures a Service. Zero values take the defaults.
type Options struct {
	// QueueLimit caps each rack shard's pending-update queue; offers
	// beyond it are dropped (tail drop, the comm.Bus inbox discipline).
	// Zero means the default (4096); negative is an error.
	QueueLimit int
	// HotThreshold is the predicted stress above which a VM raises a
	// pre-alert. Zero means the default (0.9); negative is an error.
	HotThreshold float64
	// Mode selects the triage arithmetic: TriageFloat (default) runs the
	// float64 Holt smoother, TriageQuant the Q16.16 fixed-point twin with
	// dyadic coefficients and saturating overflow semantics (see
	// internal/quant and quant.go in this package).
	Mode TriageMode
	// Recorder receives KindIngest events (drains, drops, alerts). Nil
	// disables them.
	Recorder *obs.Recorder
	// Clock stamps offered updates for ingest-to-alert latency; nil
	// means time.Now. Tests inject a fixed clock.
	Clock func() time.Time
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.QueueLimit < 0 {
		return fmt.Errorf("ingest: QueueLimit must be >= 0 (0 = default), got %d", o.QueueLimit)
	}
	if o.HotThreshold < 0 {
		return fmt.Errorf("ingest: HotThreshold must be >= 0 (0 = default), got %v", o.HotThreshold)
	}
	if o.Mode != TriageFloat && o.Mode != TriageQuant {
		return fmt.Errorf("ingest: unknown triage mode %d", int(o.Mode))
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.QueueLimit == 0 {
		o.QueueLimit = 4096
	}
	if o.HotThreshold == 0 {
		o.HotThreshold = 0.9
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// triageQ is the triage filter's pair snapped to Q16.16, the coefficients
// of every TriageQuant fold.
var triageQ = quant.Snap(smoothing.TriageAlpha, smoothing.TriageBeta)

// Stats is a point-in-time snapshot of the service's counters.
type Stats struct {
	Offered   uint64 // updates handed to Offer/OfferBatch
	Accepted  uint64 // updates enqueued (Offered - Dropped)
	Dropped   uint64 // updates tail-dropped at a full shard queue
	Processed uint64 // updates drained through triage
	Alerts    uint64 // pre-alerts raised
	Pending   int    // updates currently queued across shards
	// Latency summarizes ingest-to-triage latency in seconds, one
	// observation per update processed; P99 is its 99th percentile read
	// from a log-bucket histogram (metrics.LogHistogram: within 12.5 % of
	// the update of that rank between 64 ns and 68 s).
	Latency    metrics.Summary
	LatencyP99 float64
}

// queued is one accepted update awaiting triage, 24 bytes. at is the
// arrival stamp in nanoseconds since the service's epoch. qv is the
// Q16.16 image of v, captured at offer time so the quantized drain path
// never touches a float; it is zero (and unused) under TriageFloat.
type queued struct {
	v    float64
	at   int64
	slot int32
	qv   quant.Q
}

// slot is one VM's triage state: a Holt smoother over the dominant
// profile component plus the edge-trigger latch. The service's mode
// decides which smoother runs — the float triple under TriageFloat, q
// under TriageQuant — and the other one stays zero.
type slot struct {
	vm           int
	level, trend float64
	seen         int
	q            quant.Holt
	alerted      bool
}

// shard is one rack's intake lane, under a hundred bytes plus 24 per
// queue entry and 48 per VM. All fields past the lock are guarded by it.
type shard struct {
	rack int

	// unpolled is set, under the lock, by a drain that raises an alert and
	// cleared, under the lock, by the Poll that takes it, so that Poll
	// passes a quiet shard without locking it.
	unpolled atomic.Bool

	mu     sync.Mutex
	queue  []queued
	slots  []slot
	alerts []Alert // raised, not yet polled
}

// loc addresses one VM's triage slot; shard is -1 for an ID no VM has.
type loc struct {
	shard, slot int32
}

// Service is the sharded ingest front end. All methods are safe for
// concurrent use.
type Service struct {
	opts  Options
	rec   *obs.Recorder
	shard []*shard
	// vmLoc is indexed by VM ID. The cluster hands IDs out sequentially
	// and every caller in the tree passes those (or 0..n-1), so the table
	// is dense; New refuses a partition too sparse for it.
	vmLoc   []loc
	epoch   time.Time // arrival stamps count from here
	qthresh quant.Q   // HotThreshold in Q16.16 (TriageQuant only)

	offered   atomic.Uint64
	accepted  atomic.Uint64
	dropped   atomic.Uint64
	processed atomic.Uint64
	alerts    atomic.Uint64

	// polled is what Poll returns, refilled by every Poll under pollMu.
	pollMu sync.Mutex
	polled []Alert

	// Queue wait of every update drained: seconds in the summary,
	// nanoseconds in the histogram, folded by each drain pass under waitMu.
	// A pass holding a shard lock may take waitMu, never the reverse.
	waitMu   sync.Mutex
	wait     metrics.Summary
	waitHist metrics.LogHistogram
}

// New builds a service over an explicit rack partition: vmsByRack[i]
// lists the VM IDs ingested through shard i. VM IDs must be unique,
// non-negative and near-sequential (the largest below 4·VMs + 1024);
// empty racks are fine.
func New(vmsByRack [][]int, opts Options) (*Service, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n, maxID := 0, -1
	for i, vms := range vmsByRack {
		for _, vm := range vms {
			if vm < 0 {
				return nil, fmt.Errorf("ingest: negative VM id %d in rack %d", vm, i)
			}
			n++
			maxID = max(maxID, vm)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("ingest: no VMs to ingest for")
	}
	if maxID >= 4*n+1024 {
		return nil, fmt.Errorf("ingest: VM id %d too sparse for %d VMs (ids index a dense table)", maxID, n)
	}
	s := &Service{
		opts:    opts,
		rec:     opts.Recorder,
		vmLoc:   make([]loc, maxID+1),
		epoch:   opts.Clock(),
		qthresh: quant.FromFloat(opts.HotThreshold),
	}
	for i := range s.vmLoc {
		s.vmLoc[i].shard = -1
	}
	for i, vms := range vmsByRack {
		// A drain raises at most one alert per VM it holds, so a shard's
		// alert list, like Poll's, starts at one entry per VM.
		sh := &shard{
			rack:   i,
			queue:  make([]queued, 0, min(len(vms), opts.QueueLimit)),
			slots:  make([]slot, 0, len(vms)),
			alerts: make([]Alert, 0, len(vms)),
		}
		for _, vm := range vms {
			if s.vmLoc[vm].shard >= 0 {
				return nil, fmt.Errorf("ingest: VM %d assigned to more than one rack", vm)
			}
			s.vmLoc[vm] = loc{shard: int32(i), slot: int32(len(sh.slots))}
			sh.slots = append(sh.slots, slot{vm: vm})
		}
		s.shard = append(s.shard, sh)
	}
	s.polled = make([]Alert, 0, n)
	return s, nil
}

// FromCluster builds a service sharded by the cluster's current rack
// placement (VMs sorted by ID within each rack). The partition is fixed
// at construction: a VM that later migrates keeps its admission shard,
// since triage state is per-VM and shard choice only affects queueing.
func FromCluster(c *dcn.Cluster, opts Options) (*Service, error) {
	vmsByRack := make([][]int, len(c.Racks))
	for i, r := range c.Racks {
		vms := r.VMs()
		ids := make([]int, 0, len(vms))
		for _, vm := range vms {
			ids = append(ids, vm.ID)
		}
		slices.Sort(ids)
		vmsByRack[i] = ids
	}
	return New(vmsByRack, opts)
}

// Offer enqueues one update on its VM's rack shard. It returns false
// without error when the shard queue is full (the update is tail-dropped
// and counted), and an error for a VM the service was not built for or a
// profile with a NaN or ±Inf component.
// The accept path performs no allocation.
func (s *Service) Offer(u Update) (bool, error) {
	one := [1]Update{u}
	n, err := s.OfferBatch(one[:])
	return n == 1, err
}

// locate resolves a VM ID to its shard and slot.
func (s *Service) locate(vm int) (loc, bool) {
	if uint(vm) >= uint(len(s.vmLoc)) {
		return loc{}, false
	}
	l := s.vmLoc[vm]
	return l, l.shard >= 0
}

// OfferBatch offers each update in order and returns how many were
// accepted. Overflow drops are not errors; an unknown VM or a non-finite
// profile is, and stops the batch (the updates before it stay offered).
// The whole batch shares one arrival stamp — the updates arrived together
// — and each run of consecutive updates for one shard takes that shard's
// lock once, so the per-update accept cost is one read of the update, the
// table lookup and the queue append.
func (s *Service) OfferBatch(updates []Update) (int, error) {
	at := int64(s.opts.Clock().Sub(s.epoch))
	quantized := s.opts.Mode == TriageQuant
	var sh *shard // the shard the current run holds locked
	accepted, start, room, i := 0, 0, 0, 0
	for ; i < len(updates); i++ {
		u := &updates[i]
		p := u.Profile // read once, for the check and the stress both
		l, ok := s.locate(u.VM)
		if !ok || !p.Finite() {
			break
		}
		if next := s.shard[l.shard]; next != sh {
			if sh != nil {
				accepted += s.endRun(sh, updates[start:i], room)
			}
			sh, start = next, i
			sh.mu.Lock()
			room = s.opts.QueueLimit - len(sh.queue)
		}
		if i-start < room {
			q := queued{slot: l.slot, at: at}
			if quantized {
				// The one float→fixed conversion on the quantized path:
				// everything downstream of the intake boundary is integer
				// arithmetic. Only the fixed-point image is queued — the
				// drain never reads the float.
				q.qv = quant.FromFloat(p.Max())
			} else {
				q.v = p.Max()
			}
			sh.queue = append(sh.queue, q)
		}
	}
	if sh != nil {
		accepted += s.endRun(sh, updates[start:i], room)
	}
	var err error
	if i < len(updates) {
		u := updates[i]
		if _, known := s.locate(u.VM); !known {
			err = fmt.Errorf("ingest: unknown VM %d", u.VM)
		} else {
			err = fmt.Errorf("ingest: VM %d reported a non-finite profile %+v", u.VM, u.Profile)
		}
	}
	s.offered.Add(uint64(i))
	s.accepted.Add(uint64(accepted))
	s.dropped.Add(uint64(i - accepted))
	return accepted, err
}

// endRun releases the shard a run of offers held and returns how many of
// the run it accepted. Tail drop: once the queue is full it stays full for
// the rest of the run, so a run is an accepted prefix of room updates and
// a dropped suffix. Drop events go out after the unlock: a subscriber's
// sink must never run under a shard lock on the offer path.
func (s *Service) endRun(sh *shard, run []Update, room int) int {
	sh.mu.Unlock()
	took := min(len(run), room)
	if s.rec.Enabled() {
		for _, u := range run[took:] {
			s.rec.Record(obs.Event{Kind: obs.KindIngest, Phase: "drop", Shim: sh.rack, VM: u.VM, Host: -1, Value: 1})
		}
	}
	return took
}

// ProcessPending drains every shard queue through triage on the caller,
// in rack order, and returns the number of updates processed. Newly
// raised alerts accumulate for Poll.
//
// The pass reads the clock once, so every update offered under one
// arrival stamp waited the same time, whichever shard queued it: the
// updates of one stamp gather into one pending run on the caller's stack
// (waitRun), which folds into the service's summary and histogram when
// the stamp changes and once after the last shard. A period offered as
// one batch folds once a pass.
func (s *Service) ProcessPending() int {
	run := waitRun{now: int64(s.opts.Clock().Sub(s.epoch))}
	processed, raised := 0, 0
	for _, sh := range s.shard {
		n, r := s.drainShard(sh, &run)
		processed += n
		raised += r
	}
	s.foldWait(&run)
	if processed > 0 {
		s.processed.Add(uint64(processed))
	}
	if raised > 0 {
		s.alerts.Add(uint64(raised))
	}
	return processed
}

// drainShard runs triage over one shard's queue: each update folds
// into its VM's smoother — smoothing.HoltStep under TriageFloat,
// quant.(*Holt).Observe under TriageQuant, where the fold, the one-step
// prediction and the threshold compare are all integer — and a
// prediction above the threshold raises the edge-triggered pre-alert.
// The loop is allocation-free in steady state. The shard lock is held
// for the whole drain, so offers to this shard wait — that is the
// backpressure contract: accepted updates are processed exactly once,
// in order, before anything newer.
//
// Each update's wait is added to run, the pass's pending run of one
// arrival stamp (a batch stamps once); an update under another stamp
// folds the run first (foldWait).
//
// It returns how many updates it processed and how many alerts it raised;
// the caller adds them to the service's counters.
func (s *Service) drainShard(sh *shard, run *waitRun) (int, int) {
	sh.mu.Lock()
	n := len(sh.queue)
	if n == 0 {
		sh.mu.Unlock()
		return 0, 0
	}
	quantized := s.opts.Mode == TriageQuant
	// The quantized signal saturates at quant.Max, the hottest state it
	// can represent, so a threshold at or past the rail is held one step
	// below it: a signal pinned to the rail still alerts.
	qthresh := min(s.qthresh, quant.Max-1)
	raised := 0
	for i := range sh.queue {
		q := &sh.queue[i]
		if q.at != run.at {
			s.foldWait(run)
			run.at = q.at
		}
		run.n++
		sl := &sh.slots[q.slot]
		var pred float64
		var sig quant.Q
		var hot bool
		if quantized {
			sig = sl.q.Observe(q.qv, triageQ)
			hot = sig > qthresh
		} else {
			pred = sl.observe(q.v)
			hot = pred > s.opts.HotThreshold
			if sl.seen%smoothing.FlushEvery == 0 {
				sl.flush()
			}
		}
		if hot && !sl.alerted {
			if quantized {
				pred = sig.Float() // the integer path turns float only to report
			}
			sh.alerts = append(sh.alerts, Alert{Rack: sh.rack, VM: sl.vm, Value: pred})
			raised++
			s.rec.Record(obs.Event{Kind: obs.KindIngest, Phase: "alert", Shim: sh.rack, VM: sl.vm, Host: -1, Value: pred})
		}
		sl.alerted = hot
	}
	sh.queue = sh.queue[:0]
	if raised > 0 {
		sh.unpolled.Store(true)
	}
	sh.mu.Unlock()

	if s.rec.Enabled() {
		s.rec.Record(obs.Event{Kind: obs.KindIngest, Phase: "drain", Shim: sh.rack, VM: -1, Host: -1, Value: float64(n)})
	}
	return n, raised
}

// waitRun is a drain pass's pending queue wait: n updates arrived at at
// and were drained at now, all in nanoseconds since the service's epoch.
// It lives on the caller's stack.
type waitRun struct {
	now, at int64
	n       int
}

// foldWait folds w into the service's wait summary and histogram, once
// with its count as weight, and empties it. A batch stamped after the pass
// read its clock but drained by it would read negative; it waited no time
// at all.
func (s *Service) foldWait(w *waitRun) {
	if w.n == 0 {
		return
	}
	ns := max(w.now-w.at, 0)
	s.waitMu.Lock()
	s.wait.ObserveN(time.Duration(ns).Seconds(), w.n)
	s.waitHist.ObserveN(ns, uint64(w.n))
	s.waitMu.Unlock()
	w.n = 0
}

// observe folds one observation into the float Holt state and returns
// the one-step-ahead prediction.
func (sl *slot) observe(v float64) float64 {
	if sl.seen == 0 {
		sl.level, sl.trend = v, 0
	} else {
		sl.level, sl.trend = smoothing.HoltStep(sl.level, sl.trend, v, smoothing.TriageAlpha, smoothing.TriageBeta)
	}
	sl.seen++
	return sl.level + sl.trend
}

// flush zeroes a subnormal level or trend (smoothing.Flush). The drain
// calls it every smoothing.FlushEvery observations of a slot, by the count
// its snapshot carries (seen); in observe it would cost observe its
// inlining in the drain loop.
func (sl *slot) flush() {
	sl.level, sl.trend = smoothing.Flush(sl.level), smoothing.Flush(sl.trend)
}

// Poll returns the alerts raised since the previous Poll, sorted by
// (rack, VM), and clears them. Shards are visited in rack order, so only
// each shard's own run needs sorting. A shard no drain has raised an alert
// on since is passed without taking its lock.
//
// The slice is the service's and stays valid until the next Poll, which
// refills it: a caller that keeps alerts across polls copies them. It
// starts at one entry per VM, so a caller that polls after every drain
// never makes it grow.
func (s *Service) Poll() []Alert {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()
	out := s.polled[:0]
	for _, sh := range s.shard {
		if !sh.unpolled.Load() {
			continue
		}
		sh.mu.Lock()
		from := len(out)
		out = append(out, sh.alerts...)
		sh.alerts = sh.alerts[:0]
		sh.unpolled.Store(false)
		sh.mu.Unlock()
		if len(out)-from > 1 {
			slices.SortFunc(out[from:], func(a, b Alert) int { return cmp.Compare(a.VM, b.VM) })
		}
	}
	s.polled = out
	return out
}

// Stats returns the current counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Offered:   s.offered.Load(),
		Accepted:  s.accepted.Load(),
		Dropped:   s.dropped.Load(),
		Processed: s.processed.Load(),
		Alerts:    s.alerts.Load(),
	}
	for _, sh := range s.shard {
		sh.mu.Lock()
		st.Pending += len(sh.queue)
		sh.mu.Unlock()
	}
	s.waitMu.Lock()
	st.Latency = s.wait
	if st.Latency.Count() > 0 {
		st.LatencyP99 = s.waitHist.Quantile(0.99) / 1e9
	}
	s.waitMu.Unlock()
	return st
}

// CheckInvariants verifies the service's conservation of updates: every
// update offered was accepted or tail-dropped (Offered = Accepted +
// Dropped), and every update accepted was drained through triage or is
// still queued (Accepted = Processed + Pending). The error names the
// identity that failed and its counts. The counters are service-wide, so
// the offer path pays no per-shard atomics for this; call it between
// periods, with no Offer or ProcessPending in flight, since a counter is
// bumped after the shard lock that queues or drains the updates it counts.
// It is meant for tests and `sheriffd -check`, not for the per-period path.
func (s *Service) CheckInvariants() error {
	st := s.Stats()
	if st.Offered != st.Accepted+st.Dropped {
		return fmt.Errorf("ingest: offered = accepted + dropped fails: offered %d, accepted %d, dropped %d",
			st.Offered, st.Accepted, st.Dropped)
	}
	if st.Accepted != st.Processed+uint64(st.Pending) {
		return fmt.Errorf("ingest: accepted = processed + pending fails: accepted %d, processed %d, pending %d",
			st.Accepted, st.Processed, st.Pending)
	}
	return nil
}
