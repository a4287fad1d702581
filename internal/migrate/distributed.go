package migrate

import (
	"fmt"
	"sort"
	"strconv"

	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/obs"
	"sheriff/internal/placement"
)

// DistOptions tunes the message-passing migration protocol. Zero fields
// mean "use the default"; negative values are a Validate error.
type DistOptions struct {
	// MaxRounds bounds the protocol (a round = propose, deliver, decide,
	// deliver, collect). Default 30.
	MaxRounds int
	// RequestTimeout is how many rounds a request may stay unanswered
	// before the source assumes it was lost and retries. Default 3.
	RequestTimeout int
	// RetryBudget is how many times one VM's request may time out before
	// the source stops retrying and degrades it to local sequential
	// placement (see DisableFallback). Default 4.
	RetryBudget int
	// BackoffBase is the first backoff after a timeout, in rounds; each
	// further timeout doubles it (exponential backoff with deterministic
	// seeded jitter in [0, current backoff]). Default 1.
	BackoffBase int
	// BackoffMax caps the exponential backoff, in rounds. Default 8.
	BackoffMax int
	// Seed drives the backoff jitter. The jitter is a pure function of
	// (Seed, VM ID, attempt), so it is deterministic regardless of map
	// iteration or timeout order.
	Seed int64
	// DisableFallback leaves budget-exhausted and unreachable VMs
	// unplaced instead of degrading them to local sequential placement
	// (the pre-fault-injection behaviour; also the ablation baseline).
	DisableFallback bool
	// RequestPolicy, when non-nil, is consulted by every destination shim
	// before its capacity check — the protocol-wide admission / failure
	// injection point. Destination shims additionally apply their own
	// Params.RequestPolicy.
	RequestPolicy RequestPolicy
	// Recorder, when non-nil, receives request/ack/reject/retry/backoff/
	// suppress/fallback/unplaced events with protocol round numbers.
	Recorder *obs.Recorder
	// Placement selects the protocol-wide destination-scoring policy for
	// source matchings and destination capacity grants. The zero value is
	// the Sheriff rule, bit-exact with the pre-policy protocol.
	Placement placement.PolicyOptions
	// Preempt enables destination-side preemption: a shim refusing a
	// REQUEST for capacity may evict a strictly lower-severity resident
	// to grant it. Requires Queue (the victim must park somewhere).
	Preempt PreemptOptions
	// Queue, when non-nil, is the cross-invocation fail-queue: parked VMs
	// drain into their owning shim's candidate set at the start of the
	// run, and budget- or rounds-exhausted VMs park for the next run
	// instead of degrading straight to the fallback ladder.
	Queue *RetryQueue
}

// Validate reports whether the options are usable. Negative values are
// errors; zero values mean "use the default".
func (o DistOptions) Validate() error {
	if o.MaxRounds < 0 {
		return fmt.Errorf("migrate: MaxRounds must be >= 0 (0 = default), got %d", o.MaxRounds)
	}
	if o.RequestTimeout < 0 {
		return fmt.Errorf("migrate: RequestTimeout must be >= 0 (0 = default), got %d", o.RequestTimeout)
	}
	if o.RetryBudget < 0 {
		return fmt.Errorf("migrate: RetryBudget must be >= 0 (0 = default), got %d", o.RetryBudget)
	}
	if o.BackoffBase < 0 {
		return fmt.Errorf("migrate: BackoffBase must be >= 0 (0 = default), got %d", o.BackoffBase)
	}
	if o.BackoffMax < 0 {
		return fmt.Errorf("migrate: BackoffMax must be >= 0 (0 = default), got %d", o.BackoffMax)
	}
	if err := o.Placement.Validate(); err != nil {
		return err
	}
	return o.Preempt.Validate()
}

// WithDefaults returns the options with zero fields replaced by their
// defaults (parity with Params.WithDefaults; zero = default, negative =
// Validate error).
func (o DistOptions) WithDefaults() DistOptions {
	if o.MaxRounds == 0 {
		o.MaxRounds = 30
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 3
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 4
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = 1
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = 8
	}
	o.Placement = o.Placement.WithDefaults()
	o.Preempt = o.Preempt.WithDefaults()
	return o
}

// DistResult summarizes a distributed migration run.
type DistResult struct {
	Tally
	Retransmits int // requests re-sent after a presumed loss
	Suppressed  int // duplicate requests/replies discarded by dedup
	Fallbacks   int // VMs degraded to local sequential placement
	Rounds      int
}

// outstanding tracks one in-flight request at its source shim.
type outstanding struct {
	vm   *dcn.VM
	dst  *dcn.Host
	cost float64
	age  int
}

// backoffJitter derives the deterministic jitter for one (seed, vm,
// attempt) retry in [0, span] via a splitmix64-style hash — independent
// of map iteration and timeout order, so traces replay bit-identically.
func backoffJitter(seed int64, vmID, attempt, span int) int {
	if span <= 0 {
		return 0
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(vmID)*0xbf58476d1ce4e5b9 + uint64(attempt)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(span+1))
}

// fallbackVM is one VM degraded out of the distributed protocol, with the
// cause for its trace event.
type fallbackVM struct {
	vm    *dcn.VM
	cause string
}

// DistributedVMMigration runs Alg. 3 + Alg. 4 as an actual message
// protocol over the bus: source shims match their candidate VMs against
// their regions and send REQUEST envelopes; destination shims grant
// capacity FCFS in message-arrival order, apply the move themselves, and
// reply ACK or REJECT. The protocol survives an adverse fabric (see
// internal/faults): lost messages are handled by timeout and exponential
// backoff with seeded jitter, fabric-duplicated REQUESTs and replies are
// suppressed by message ID, destinations across an active partition
// window are not proposed to, and when a VM's retry budget exhausts (or
// the rounds run out) it degrades to local sequential placement instead
// of staying unplaced. A lost ACK is detected by observing that the VM
// already sits at the requested destination.
//
// vmSets[i] holds the VMs shims[i] must relocate. Shims are addressed on
// the bus by rack index.
func DistributedVMMigration(c *dcn.Cluster, m *cost.Model, bus *comm.Bus, shims []*Shim, vmSets [][]*dcn.VM, opts DistOptions) (*DistResult, error) {
	if len(vmSets) != len(shims) {
		return nil, fmt.Errorf("migrate: %d VM sets for %d shims", len(vmSets), len(shims))
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	rec := opts.Recorder
	res := &DistResult{}
	pol, err := opts.Placement.New()
	if err != nil {
		return nil, err
	}
	k := core{c: c, m: m, pol: pol, admit: opts.RequestPolicy, rec: rec,
		preempt: opts.Preempt, queue: opts.Queue, tally: &res.Tally}

	shimIdxByRack := make(map[int]int, len(shims))
	for i, s := range shims {
		shimIdxByRack[s.Rack.Index] = i
	}
	remaining := make([][]*dcn.VM, len(shims))
	for i, set := range vmSets {
		remaining[i] = append([]*dcn.VM(nil), set...)
	}
	// Drain the cross-invocation fail-queue: parked VMs re-enter their
	// owning shim's candidate set (unattributed entries go to shim 0).
	for _, e := range k.drain() {
		i, ok := shimIdxByRack[e.Shim]
		if !ok {
			i = 0
		}
		remaining[i] = append(remaining[i], e.VM)
	}
	// The per-shim maps below are made on their first write (see made).
	// Per-shim excluded (vmID, hostID) pairs after explicit REJECTs.
	excluded := make([]map[int]map[int]bool, len(shims))
	pending := make([]map[int]*outstanding, len(shims)) // seq -> request
	// Source-side protocol-hardening state, all keyed per shim:
	// resolved seqs (for duplicate-reply suppression), per-VM timeout
	// attempts, and per-VM backoff deadlines (protocol round numbers).
	resolved := make([]map[int]bool, len(shims))
	attempts := make([]map[int]int, len(shims))
	deferUntil := make([]map[int]int, len(shims))
	fallback := make([][]fallbackVM, len(shims))
	// Destination-side dedup, by rack index: seq -> reply already sent, so
	// a duplicated REQUEST is re-answered identically instead of
	// re-applying the move.
	answered := make(map[int]map[int]comm.Type, len(shims))
	seq := 0

	// degrade moves one VM out of the distributed protocol.
	degrade := func(i int, vm *dcn.VM, round int, cause string) {
		fallback[i] = append(fallback[i], fallbackVM{vm: vm, cause: cause})
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindFallback, Round: round,
				Shim: shims[i].Rack.Index, VM: vm.ID, Host: ShimUnknown,
				Attrs: map[string]string{"cause": cause}})
		}
	}

	// suppress discards a message whose seq the shim has already settled.
	suppress := func(shim *Shim, msg comm.Message) {
		res.Suppressed++
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindSuppress, Round: res.Rounds,
				Shim: shim.Rack.Index, VM: msg.VMID, Host: msg.HostID,
				Attrs: map[string]string{"msg": msg.Type.String(), "seq": strconv.Itoa(msg.Seq)}})
		}
	}

	for round := 0; round < opts.MaxRounds; round++ {
		res.Rounds = round + 1
		// Phase A: sources with free candidates propose via matching.
		// VMs inside a backoff window sit this round out; destinations
		// across an active partition are not proposed to.
		for i, shim := range shims {
			if len(remaining[i]) == 0 {
				continue
			}
			var ready, waiting []*dcn.VM
			for _, vm := range remaining[i] {
				if deferUntil[i][vm.ID] > round {
					waiting = append(waiting, vm)
				} else {
					ready = append(ready, vm)
				}
			}
			if len(ready) == 0 {
				remaining[i] = waiting
				continue
			}
			hosts := shim.regionHosts(true)
			if len(hosts) == 0 {
				for _, vm := range ready {
					degrade(i, vm, res.Rounds, "no-destination")
				}
				remaining[i] = waiting
				continue
			}
			var cut map[int]bool // host index -> across a partition
			for hi, h := range hosts {
				if _, p := bus.Partitioned(shim.Rack.Index, h.Rack().Index); p {
					made(&cut)[hi] = true
				}
			}
			assign, bases, err := k.match(ready, hosts, func(vm *dcn.VM, hi int) bool {
				return cut[hi] || excluded[i][vm.ID][hosts[hi].ID]
			})
			if err != nil {
				return nil, err
			}
			res.SearchSpace += len(ready) * len(hosts)
			if assign == nil {
				cause := "no-destination"
				if len(cut) > 0 {
					cause = "partition"
				}
				for _, vm := range ready {
					degrade(i, vm, res.Rounds, cause)
				}
				remaining[i] = waiting
				continue
			}
			keep := waiting
			for vi, vm := range ready {
				hi := assign[vi]
				if hi < 0 {
					keep = append(keep, vm)
					continue
				}
				dst := hosts[hi]
				seq++
				made(&pending[i])[seq] = &outstanding{vm: vm, dst: dst, cost: bases[vi][hi]}
				rec.Record(obs.Event{Kind: obs.KindRequest, Round: res.Rounds,
					Shim: shim.Rack.Index, VM: vm.ID, Host: dst.ID, Value: bases[vi][hi]})
				bus.Send(comm.Message{
					Type: comm.MsgRequest,
					From: shim.Rack.Index,
					To:   dst.Rack().Index,
					VMID: vm.ID, HostID: dst.ID, Seq: seq,
				})
			}
			remaining[i] = keep
		}
		bus.Deliver()

		// answerRequest runs one destination-side Alg. 4 decision. A
		// REQUEST seq already answered (a fabric duplicate) is re-answered
		// with the recorded reply instead of re-applying the move.
		answerRequest := func(shim *Shim, msg comm.Message) {
			reply, dup := answered[shim.Rack.Index][msg.Seq]
			if dup {
				suppress(shim, msg)
			} else {
				vm := c.VM(msg.VMID)
				dst := c.Host(msg.HostID)
				reply = comm.MsgReject
				if vm != nil && dst != nil && dst.Rack() == shim.Rack {
					local := shim.params.RequestPolicy
					ok, cause := k.grant(vm, dst, local)
					// Destination-side preemption: a capacity refusal may
					// evict one strictly lower-severity resident; the victim
					// parks in the fail-queue and finds a new home later.
					if !ok && cause == causeCapacity && k.queue != nil {
						if victim := k.evictFor(vm, dst, nil, shim.Rack.Index, res.Rounds); victim != nil {
							k.park(victim, shim.Rack.Index, res.Rounds)
							ok, _ = k.grant(vm, dst, local)
						}
					}
					if ok {
						reply = comm.MsgAck
					}
				}
				seen := answered[shim.Rack.Index]
				if seen == nil {
					seen = make(map[int]comm.Type)
					answered[shim.Rack.Index] = seen
				}
				seen[msg.Seq] = reply
			}
			bus.Send(comm.Message{
				Type: reply,
				From: shim.Rack.Index,
				To:   msg.From,
				VMID: msg.VMID, HostID: msg.HostID, Seq: msg.Seq,
			})
		}

		// Phase B: destinations grant FCFS in arrival order and apply the
		// move themselves (they own the host), then reply.
		for _, shim := range shims {
			for _, msg := range bus.Receive(shim.Rack.Index) {
				if msg.Type != comm.MsgRequest {
					continue
				}
				answerRequest(shim, msg)
			}
		}
		bus.Deliver()

		// Phase C: sources collect replies and age out lost requests.
		// Delay-faulted REQUESTs landing in this half-round are answered
		// here rather than discarded (the reply reaches its source next
		// round).
		done := true
		for i := range shims {
			for _, msg := range bus.Receive(shims[i].Rack.Index) {
				if msg.Type == comm.MsgRequest {
					answerRequest(shims[i], msg)
					continue
				}
				if msg.Type != comm.MsgAck && msg.Type != comm.MsgReject {
					continue
				}
				req := pending[i][msg.Seq]
				if req == nil {
					// A duplicated or late reply for a seq already settled
					// (or timed out): suppress, never double-count.
					if resolved[i][msg.Seq] {
						suppress(shims[i], msg)
					}
					continue
				}
				delete(pending[i], msg.Seq)
				made(&resolved[i])[msg.Seq] = true
				switch msg.Type {
				case comm.MsgAck:
					res.Migrations = append(res.Migrations, Migration{
						VM: req.vm, From: nil, To: req.dst, Cost: req.cost,
					})
					res.TotalCost += req.cost
					rec.Record(obs.Event{Kind: obs.KindAck, Round: res.Rounds,
						Shim: shims[i].Rack.Index, VM: req.vm.ID, Host: req.dst.ID, Value: req.cost})
				case comm.MsgReject:
					res.Rejected++
					exclude(&excluded[i], req.vm.ID, req.dst.ID)
					remaining[i] = append(remaining[i], req.vm)
					rec.Record(obs.Event{Kind: obs.KindReject, Round: res.Rounds,
						Shim: shims[i].Rack.Index, VM: req.vm.ID, Host: req.dst.ID, Value: req.cost})
				}
			}
			// Timeouts: either the request or its reply was lost.
			var expired []int
			for s, req := range pending[i] {
				req.age++
				if req.age >= opts.RequestTimeout {
					expired = append(expired, s)
				}
			}
			sort.Ints(expired)
			for _, s := range expired {
				req := pending[i][s]
				delete(pending[i], s)
				made(&resolved[i])[s] = true
				if req.vm.Host() == req.dst {
					// The move happened; only the ACK was lost.
					res.Migrations = append(res.Migrations, Migration{
						VM: req.vm, From: nil, To: req.dst, Cost: req.cost,
					})
					res.TotalCost += req.cost
					if rec.Enabled() {
						rec.Record(obs.Event{Kind: obs.KindAck, Round: res.Rounds,
							Shim: shims[i].Rack.Index, VM: req.vm.ID, Host: req.dst.ID,
							Value: req.cost, Attrs: map[string]string{"cause": "lost-ack"}})
					}
					continue
				}
				made(&attempts[i])[req.vm.ID]++
				attempt := attempts[i][req.vm.ID]
				if attempt > opts.RetryBudget {
					degrade(i, req.vm, res.Rounds, "budget")
					continue
				}
				res.Retransmits++
				// Exponential backoff before the VM proposes again:
				// base·2^(attempt-1) capped at BackoffMax, plus seeded
				// jitter in [0, backoff].
				backoff := opts.BackoffBase << (attempt - 1)
				if backoff > opts.BackoffMax || backoff <= 0 {
					backoff = opts.BackoffMax
				}
				backoff += backoffJitter(opts.Seed, req.vm.ID, attempt, backoff)
				made(&deferUntil[i])[req.vm.ID] = round + backoff
				remaining[i] = append(remaining[i], req.vm)
				if rec.Enabled() {
					rec.Record(obs.Event{Kind: obs.KindRetry, Round: res.Rounds,
						Shim: shims[i].Rack.Index, VM: req.vm.ID, Host: req.dst.ID,
						Value: req.cost, Attrs: map[string]string{"cause": "timeout"}})
					rec.Record(obs.Event{Kind: obs.KindBackoff, Round: res.Rounds,
						Shim: shims[i].Rack.Index, VM: req.vm.ID, Host: req.dst.ID,
						Value: float64(backoff), Attrs: map[string]string{"attempt": strconv.Itoa(attempt)}})
				}
			}
			if len(remaining[i]) > 0 || len(pending[i]) > 0 {
				done = false
			}
		}
		if done {
			break
		}
	}
	// Whatever is still waiting after MaxRounds degrades too. Pending maps
	// drain in seq order so the result (and its trace) is deterministic.
	for i := range shims {
		for _, vm := range remaining[i] {
			degrade(i, vm, res.Rounds, "rounds")
		}
		remaining[i] = nil
		var waiting []int
		for s := range pending[i] {
			waiting = append(waiting, s)
		}
		sort.Ints(waiting)
		for _, s := range waiting {
			if req := pending[i][s]; req.vm.Host() != req.dst {
				degrade(i, req.vm, res.Rounds, "rounds")
			}
		}
	}
	// Degradation ladder, last rung: each shim places its degraded VMs
	// with local sequential VMMIGRATION over its own region — no bus, no
	// retries — so a hostile fabric costs optimality, not placement. With
	// a fail-queue attached, VMs inside the attempt budget park for the
	// next protocol run instead of degrading; budget-exhausted ones still
	// take the ladder so in-call unplaced==0 guarantees hold.
	for i, shim := range shims {
		if len(fallback[i]) == 0 {
			continue
		}
		vms := make([]*dcn.VM, 0, len(fallback[i]))
		for _, f := range fallback[i] {
			if !k.park(f.vm, shim.Rack.Index, res.Rounds) {
				vms = append(vms, f.vm)
			}
		}
		if len(vms) == 0 {
			continue
		}
		if opts.DisableFallback {
			res.Unplaced = append(res.Unplaced, vms...)
			continue
		}
		res.Fallbacks += len(vms)
		hosts := shim.regionHosts(true)
		if len(hosts) == 0 {
			res.Unplaced = append(res.Unplaced, vms...)
			continue
		}
		// The last rung neither evicts nor parks, and the shim decides for
		// its whole region. It counts into a tally of its own, folded in
		// afterwards, so that TotalCost sums in the order it always has.
		var lt Tally
		last := k
		last.preempt, last.queue, last.tally = PreemptOptions{}, nil, &lt
		if _, err := last.sequential(vms, hosts, shim.Rack.Index, false, false, shim.params.RequestPolicy); err != nil {
			return nil, fmt.Errorf("migrate: fallback placement shim %d: %w", shim.Rack.Index, err)
		}
		res.Add(&lt)
	}
	if opts.DisableFallback && rec.Enabled() {
		for _, vm := range res.Unplaced {
			rec.Record(obs.Event{Kind: obs.KindUnplaced, Round: res.Rounds, Shim: ShimUnknown, VM: vm.ID, Host: ShimUnknown})
		}
	}
	return res, nil
}
