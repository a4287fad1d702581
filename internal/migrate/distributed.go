package migrate

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/obs"
)

// The handshake's retry schedule, in protocol rounds. A request
// unanswered for requestTimeout rounds is presumed lost; the source
// retries it after an exponential backoff of backoffBase·2^(attempt-1),
// capped at backoffMax, plus seeded jitter in [0, backoff]. A VM whose
// request times out more than retryBudget times degrades to the fallback
// ladder.
const (
	requestTimeout = 3
	retryBudget    = 4
	backoffBase    = 1
	backoffMax     = 8
)

// DistOptions tunes the message-passing migration protocol. Zero fields
// mean "use the default"; negative values are a Validate error.
type DistOptions struct {
	// MaxRounds bounds the protocol (a round = propose, deliver, decide,
	// deliver, collect). Default 30.
	MaxRounds int
	// Seed drives the backoff jitter. The jitter is a pure function of
	// (Seed, VM ID, attempt), so it is deterministic regardless of map
	// iteration or timeout order.
	Seed int64
	// RequestPolicy, when non-nil, is consulted by every destination shim
	// before its capacity check — the protocol-wide admission / failure
	// injection point. Destination shims additionally apply their own
	// Params.RequestPolicy.
	RequestPolicy RequestPolicy
	// Recorder, when non-nil, receives request/ack/reject/retry/backoff/
	// suppress/fallback/unplaced events with protocol round numbers.
	Recorder *obs.Recorder
}

// Validate reports whether the options are usable. Negative values are
// errors; zero values mean "use the default".
func (o DistOptions) Validate() error {
	if o.MaxRounds < 0 {
		return fmt.Errorf("migrate: MaxRounds must be >= 0 (0 = default), got %d", o.MaxRounds)
	}
	return nil
}

// WithDefaults returns the options with zero fields replaced by their
// defaults (parity with Params.WithDefaults; zero = default, negative =
// Validate error).
func (o DistOptions) WithDefaults() DistOptions {
	o.MaxRounds = cmp.Or(o.MaxRounds, 30)
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

// candidate is one VM a source shim must relocate, with what the shim
// keeps on it across retries. A VM listed twice for one shim has one.
type candidate struct {
	vm         *dcn.VM
	shim       int   // index of the shim relocating it
	attempts   int   // timeouts so far
	deferUntil int   // the protocol round its backoff ends
	excluded   []int // IDs of the hosts that rejected it
}

// request is one REQUEST the call sent, stored at its seq. The source
// settles it on a reply or a timeout; the destination keeps its answer on
// it, to answer a duplicated REQUEST again instead of moving the VM twice.
// A seq reaches one destination rack only, so one answer suffices.
type request struct {
	cand     int // the source's candidate record
	dst      *dcn.Host
	cost     float64
	age      int
	settled  bool // the source has its reply, or gave up waiting
	answered bool // the destination has decided; reply is its answer
	reply    comm.Type
}

// protocol is one DistributedVMMigration call, on tables built once per
// call. remaining and open hold, per shim, the candidates still to propose
// and the seqs awaiting a reply, ascending: capped segments of one array as
// long as the shim's VM list, since a listed VM sits in at most one of them.
type protocol struct {
	core
	bus   *comm.Bus
	shims []*Shim
	opts  DistOptions
	res   *DistResult

	cands     []candidate
	remaining [][]int
	open      [][]int
	reqs      []request // by seq; seq 0 is never sent
	fallback  []int     // degraded candidates

	// One proposal's scratch, reused by the next.
	ready    []int // candidate records
	readyVMs []*dcn.VM
	hosts    []*dcn.Host
	cut      []bool // hosts across an active partition
	barred   func(vi, hi int) bool
}

// DistributedVMMigration runs Alg. 3 + Alg. 4 as an actual message
// protocol over the bus: source shims match their candidate VMs against
// their regions and send REQUEST envelopes; destination shims grant
// capacity FCFS in message-arrival order, apply the move themselves, and
// reply ACK or REJECT. The protocol survives an adverse fabric (see
// internal/faults): lost messages are handled by timeout and exponential
// backoff with seeded jitter, fabric-duplicated REQUESTs and replies are
// suppressed by seq, destinations across an active partition window are
// not proposed to, and when a VM's retry budget exhausts (or the rounds
// run out) it degrades to local sequential placement instead of staying
// unplaced. A lost ACK is detected by observing that the VM already sits
// at the requested destination.
//
// vmSets[i] holds the VMs shims[i] must relocate. Shims are addressed on
// the bus by rack index. The bus carries this call's traffic: a message
// with a seq the call did not send is ignored.
func DistributedVMMigration(c *dcn.Cluster, m *cost.Model, bus *comm.Bus, shims []*Shim, vmSets [][]*dcn.VM, opts DistOptions) (*DistResult, error) {
	if len(vmSets) != len(shims) {
		return nil, fmt.Errorf("migrate: %d VM sets for %d shims", len(vmSets), len(shims))
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	res := &DistResult{}
	p := &protocol{core: core{c: c, m: m, admit: opts.RequestPolicy, rec: opts.Recorder, tally: &res.Tally},
		bus: bus, shims: shims, opts: opts, res: res}
	p.barred = func(vi, hi int) bool {
		return p.cut[hi] || slices.Contains(p.cands[p.ready[vi]].excluded, p.hosts[hi].ID)
	}
	p.load(vmSets)

	for round := 0; round < opts.MaxRounds; round++ {
		res.Rounds = round + 1
		for i := range shims {
			if err := p.propose(i, round); err != nil {
				return nil, err
			}
		}
		bus.Deliver()
		// Destinations grant FCFS in arrival order, apply the move
		// themselves (they own the host), then reply.
		for _, shim := range shims {
			for _, msg := range bus.Receive(shim.Rack.Index) {
				if msg.Type == comm.MsgRequest {
					p.answer(shim, msg)
				}
			}
		}
		bus.Deliver()
		done := true
		for i := range shims {
			done = p.collect(i, round) && done
		}
		if done {
			break
		}
	}
	// Whatever is still waiting after MaxRounds degrades too, open requests
	// in seq order, so the result (and its trace) is deterministic.
	for i := range shims {
		for _, ci := range p.remaining[i] {
			p.degrade(ci, "rounds")
		}
		for _, seq := range p.open[i] {
			if r := &p.reqs[seq]; p.cands[r.cand].vm.Host() != r.dst {
				p.degrade(r.cand, "rounds")
			}
		}
	}
	if err := p.lastRung(); err != nil {
		return nil, err
	}
	return res, nil
}

// load builds the call's tables. A shim's remaining list is its VM set,
// one candidate record per VM ID.
func (p *protocol) load(vmSets [][]*dcn.VM) {
	total := 0
	for _, set := range vmSets {
		total += len(set)
	}
	lists := make([]int, 2*total)
	p.remaining, p.open = make([][]int, len(p.shims)), make([][]int, len(p.shims))
	p.cands = make([]candidate, 0, total)
	p.reqs = make([]request, 1, 1+2*total)
	p.res.Migrations = make([]Migration, 0, total)
	at := 0
	for i, set := range vmSets {
		first, list := len(p.cands), lists[at:at]
		for _, vm := range set {
			ci := slices.IndexFunc(p.cands[first:], func(cd candidate) bool { return cd.vm.ID == vm.ID })
			if ci < 0 {
				ci = len(p.cands) - first
				p.cands = append(p.cands, candidate{vm: vm, shim: i})
			}
			list = append(list, first+ci)
		}
		n := len(list)
		p.remaining[i], p.open[i] = lists[at:at+n:at+n], lists[at+n:at+n:at+2*n]
		at += 2 * n
	}
}

// propose is one source shim's turn: its candidates outside a backoff
// window are matched against its region, barring hosts across an active
// partition and hosts that rejected the VM, and each matched pair goes
// out as a REQUEST. Unmatched candidates wait for the next round; when no
// pair is feasible at all, the ready ones degrade.
func (p *protocol) propose(i, round int) error {
	shim := p.shims[i]
	waiting := p.remaining[i][:0]
	p.ready, p.readyVMs = p.ready[:0], p.readyVMs[:0]
	for _, ci := range p.remaining[i] {
		if p.cands[ci].deferUntil > round {
			waiting = append(waiting, ci)
		} else {
			p.ready, p.readyVMs = append(p.ready, ci), append(p.readyVMs, p.cands[ci].vm)
		}
	}
	p.remaining[i] = waiting
	if len(p.ready) == 0 {
		return nil
	}
	p.hosts = shim.regionHosts(true)
	cause := "no-destination"
	if len(p.hosts) > 0 {
		p.cut = slices.Grow(p.cut[:0], len(p.hosts))[:len(p.hosts)]
		for hi, h := range p.hosts {
			if _, p.cut[hi] = p.bus.Partitioned(shim.Rack.Index, h.Rack().Index); p.cut[hi] {
				cause = "partition"
			}
		}
		assign, bases, err := p.match(p.readyVMs, p.hosts, p.barred)
		if err != nil {
			return err
		}
		p.res.SearchSpace += len(p.ready) * len(p.hosts)
		if assign != nil {
			for vi, ci := range p.ready {
				hi := assign[vi]
				if hi < 0 {
					p.remaining[i] = append(p.remaining[i], ci)
					continue
				}
				vm, dst, cost := p.readyVMs[vi], p.hosts[hi], bases[vi][hi]
				seq := len(p.reqs)
				p.reqs = append(p.reqs, request{cand: ci, dst: dst, cost: cost})
				p.open[i] = append(p.open[i], seq)
				p.rec.Record(obs.Event{Kind: obs.KindRequest, Round: p.res.Rounds,
					Shim: shim.Rack.Index, VM: vm.ID, Host: dst.ID, Value: cost})
				p.bus.Send(comm.Message{Type: comm.MsgRequest, From: shim.Rack.Index, To: dst.Rack().Index,
					VMID: vm.ID, HostID: dst.ID, Seq: seq})
			}
			return nil
		}
	}
	for _, ci := range p.ready {
		p.degrade(ci, cause)
	}
	return nil
}

// answer runs one destination-side Alg. 4 decision and replies. A REQUEST
// already answered (a fabric duplicate) gets the recorded reply again.
func (p *protocol) answer(shim *Shim, msg comm.Message) {
	if msg.Seq <= 0 || msg.Seq >= len(p.reqs) {
		return // not a seq this call sent
	}
	r := &p.reqs[msg.Seq]
	if r.answered {
		p.suppress(shim, msg)
	} else {
		r.answered, r.reply = true, comm.MsgReject
		vm, dst := p.c.VM(msg.VMID), p.c.Host(msg.HostID)
		if vm != nil && dst != nil && dst.Rack() == shim.Rack {
			if ok, _ := p.grant(vm, dst, shim.params.RequestPolicy); ok {
				r.reply = comm.MsgAck
			}
		}
	}
	p.bus.Send(comm.Message{Type: r.reply, From: shim.Rack.Index, To: msg.From,
		VMID: msg.VMID, HostID: msg.HostID, Seq: msg.Seq})
}

// collect is one source shim's end of a round. It answers the REQUESTs a
// delay fault landed in this half-round (the reply reaches its source next
// round), settles the replies to its own requests, then ages its open
// requests and expires the timed-out ones, in seq order. It reports
// whether the shim has nothing left to wait for.
func (p *protocol) collect(i, round int) bool {
	shim := p.shims[i]
	for _, msg := range p.bus.Receive(shim.Rack.Index) {
		if msg.Type == comm.MsgRequest {
			p.answer(shim, msg)
			continue
		}
		if msg.Type != comm.MsgAck && msg.Type != comm.MsgReject || msg.Seq <= 0 || msg.Seq >= len(p.reqs) {
			continue
		}
		r := &p.reqs[msg.Seq]
		cd := &p.cands[r.cand]
		switch {
		case cd.shim != i:
		case r.settled: // a duplicated or late reply: suppress, never double-count
			p.suppress(shim, msg)
		case msg.Type == comm.MsgAck:
			r.settled = true
			p.acked(r)
			p.rec.Record(obs.Event{Kind: obs.KindAck, Round: p.res.Rounds, Shim: shim.Rack.Index, VM: cd.vm.ID, Host: r.dst.ID, Value: r.cost})
		default:
			r.settled = true
			p.res.Rejected++
			cd.excluded = append(cd.excluded, r.dst.ID)
			p.remaining[i] = append(p.remaining[i], r.cand)
			p.rec.Record(obs.Event{Kind: obs.KindReject, Round: p.res.Rounds, Shim: shim.Rack.Index, VM: cd.vm.ID, Host: r.dst.ID, Value: r.cost})
		}
	}
	open := p.open[i][:0]
	for _, seq := range p.open[i] {
		if r := &p.reqs[seq]; !r.settled {
			if r.age++; r.age < requestTimeout {
				open = append(open, seq)
			} else {
				r.settled = true
				p.expire(i, r, round)
			}
		}
	}
	p.open[i] = open
	return len(p.remaining[i]) == 0 && len(open) == 0
}

// expire handles a request that timed out: it or its reply was lost. A VM
// sitting at the destination lost only its ACK. Any other retries after
// an exponential backoff — backoffBase·2^(attempt-1) capped at backoffMax,
// plus seeded jitter in [0, backoff] — until its retry budget is spent.
func (p *protocol) expire(i int, r *request, round int) {
	shim, cd := p.shims[i].Rack.Index, &p.cands[r.cand]
	if cd.vm.Host() == r.dst {
		p.acked(r)
		if p.rec.Enabled() {
			p.rec.Record(obs.Event{Kind: obs.KindAck, Round: p.res.Rounds, Shim: shim, VM: cd.vm.ID, Host: r.dst.ID,
				Value: r.cost, Attrs: map[string]string{"cause": "lost-ack"}})
		}
		return
	}
	if cd.attempts++; cd.attempts > retryBudget {
		p.degrade(r.cand, "budget")
		return
	}
	p.res.Retransmits++
	backoff := min(backoffBase<<(cd.attempts-1), backoffMax)
	backoff += backoffJitter(p.opts.Seed, cd.vm.ID, cd.attempts, backoff)
	cd.deferUntil = round + backoff
	p.remaining[i] = append(p.remaining[i], r.cand)
	if p.rec.Enabled() {
		p.rec.Record(obs.Event{Kind: obs.KindRetry, Round: p.res.Rounds, Shim: shim, VM: cd.vm.ID, Host: r.dst.ID,
			Value: r.cost, Attrs: map[string]string{"cause": "timeout"}})
		p.rec.Record(obs.Event{Kind: obs.KindBackoff, Round: p.res.Rounds, Shim: shim, VM: cd.vm.ID, Host: r.dst.ID,
			Value: float64(backoff), Attrs: map[string]string{"attempt": strconv.Itoa(cd.attempts)}})
	}
}

// acked books the migration an acknowledged request made.
func (p *protocol) acked(r *request) {
	p.res.Migrations = append(p.res.Migrations, Migration{VM: p.cands[r.cand].vm, To: r.dst, Cost: r.cost})
	p.res.TotalCost += r.cost
}

// degrade moves one candidate out of the distributed protocol.
func (p *protocol) degrade(ci int, cause string) {
	p.fallback = append(p.fallback, ci)
	if cd := p.cands[ci]; p.rec.Enabled() {
		p.rec.Record(obs.Event{Kind: obs.KindFallback, Round: p.res.Rounds, Shim: p.shims[cd.shim].Rack.Index,
			VM: cd.vm.ID, Host: ShimUnknown, Attrs: map[string]string{"cause": cause}})
	}
}

// suppress discards a message whose seq has already been settled.
func (p *protocol) suppress(shim *Shim, msg comm.Message) {
	p.res.Suppressed++
	if p.rec.Enabled() {
		p.rec.Record(obs.Event{Kind: obs.KindSuppress, Round: p.res.Rounds, Shim: shim.Rack.Index, VM: msg.VMID,
			Host: msg.HostID, Attrs: map[string]string{"msg": msg.Type.String(), "seq": strconv.Itoa(msg.Seq)}})
	}
}

// lastRung is the degradation ladder's last rung: each shim places its
// degraded VMs with local sequential VMMIGRATION over its own region — no
// bus, no retries — so a hostile fabric costs optimality, not placement.
func (p *protocol) lastRung() error {
	res := p.res
	var vms []*dcn.VM
	for i, shim := range p.shims {
		vms = vms[:0]
		for _, ci := range p.fallback {
			if cd := p.cands[ci]; cd.shim == i {
				vms = append(vms, cd.vm)
			}
		}
		hosts := shim.regionHosts(true)
		switch {
		case len(vms) == 0:
		case len(hosts) == 0:
			res.Fallbacks += len(vms)
			res.Unplaced = append(res.Unplaced, vms...)
		default:
			res.Fallbacks += len(vms)
			// The shim decides for its whole region. The rung counts into a
			// tally of its own, folded in afterwards, so that TotalCost sums
			// in the order it always has.
			var lt Tally
			last := p.core
			last.tally = &lt
			if err := last.sequential(vms, hosts, shim.Rack.Index, false, shim.params.RequestPolicy); err != nil {
				return fmt.Errorf("migrate: fallback placement shim %d: %w", shim.Rack.Index, err)
			}
			res.Add(&lt)
		}
	}
	return nil
}
