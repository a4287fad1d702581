// Package comm provides the inter-shim message layer of Sec. V.B: local
// managers "need to communicate between each other to avoid conflictions",
// exchanging REQUEST/ACK/REJECT envelopes for VM migration and congestion
// notifications. The bus is an in-memory, deterministic network with
// per-node FIFO inboxes and injectable loss and delay, so the protocols
// built on it can be tested under adverse delivery conditions.
package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"sheriff/internal/obs"
)

// Type tags a message's protocol role.
type Type int

const (
	// MsgAlert carries an ALERT from a server/switch to its shim.
	MsgAlert Type = iota
	// MsgRequest asks a destination shim to accept a VM migration.
	MsgRequest
	// MsgAck grants a request.
	MsgAck
	// MsgReject refuses a request.
	MsgReject
	// MsgCongestion carries QCN-style congestion feedback.
	MsgCongestion
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case MsgAlert:
		return "alert"
	case MsgRequest:
		return "request"
	case MsgAck:
		return "ack"
	case MsgReject:
		return "reject"
	case MsgCongestion:
		return "congestion"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Message is one envelope on the bus.
type Message struct {
	ID       int // bus-assigned, monotone per send
	Type     Type
	From, To int // node addresses (rack indices)
	VMID     int
	HostID   int
	Value    float64
	Seq      int // correlates requests with replies
}

// Verdict is an Injector's decision for one message entering the fabric.
// The zero Verdict passes the message through untouched.
type Verdict struct {
	// Drop discards the message; Cause names the fault for trace events.
	Drop  bool
	Cause string
	// ExtraDelay holds the message back this many additional Deliver
	// rounds on top of the bus's own delay draw.
	ExtraDelay int
	// Duplicates enqueues this many extra copies of the message, each one
	// Deliver round later than the previous (fabric duplication).
	Duplicates int
}

// Injector perturbs bus traffic — the fault-injection hook behind
// internal/faults. Judge is consulted once per Send with the current
// round; Reorder may permute one round's delivery batch in place and
// reports whether it did. Implementations must be deterministic functions
// of their seed and call order. A nil Options.Injector means no faults
// and costs nothing on the send/deliver path.
type Injector interface {
	Judge(round int, m Message) Verdict
	Reorder(round int, batch []Message) bool
}

// Options tunes the bus's delivery behaviour.
type Options struct {
	// LossRate drops each message independently with this probability.
	LossRate float64
	// MaxDelay holds a delivered message back up to this many Deliver
	// rounds (uniform); 0 = next round.
	MaxDelay int
	// Seed drives loss and delay draws.
	Seed int64
	// Recorder, when non-nil, receives a send/deliver/drop event per
	// message movement; drop causes are seed-deterministic.
	Recorder *obs.Recorder
	// Injector, when non-nil, may drop, delay, duplicate, or reorder
	// traffic per its fault plan (see internal/faults).
	Injector Injector
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.LossRate < 0 || o.LossRate >= 1 {
		return fmt.Errorf("comm: LossRate must be in [0,1), got %v", o.LossRate)
	}
	if o.MaxDelay < 0 {
		return fmt.Errorf("comm: MaxDelay must be >= 0, got %d", o.MaxDelay)
	}
	return nil
}

// inboxLimit caps each node's queued inbox; messages delivered beyond it
// are dropped with cause "overflow" (tail drop), bounding memory under
// duplication storms.
const inboxLimit = 4096

// Bus is a deterministic in-memory message network. It is not safe for
// concurrent use; protocols drive it round by round.
type Bus struct {
	opts     Options
	rng      *rand.Rand
	nextID   int
	round    int // completed Deliver rounds, stamps event rounds
	inFlight []pending
	inbox    [][]Message // by node address, grown on demand
	slab     []Message   // unused room the inboxes grow into
	dropped  int
	sent     int

	duplicated int
	reordered  int

	batch []Message // per-Deliver scratch, reused to keep the hot path allocation-free
}

type pending struct {
	msg   Message
	delay int
}

// NewBus builds a bus. Nodes are addressed by non-negative integers (rack
// indices) and their inboxes are made on the first delivery; a message to
// a negative address is dropped with cause "address".
func NewBus(opts Options) (*Bus, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Bus{
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// event fills the common Event fields for one message: the sender as the
// shim, the VM/host under negotiation, and the message type plus
// destination node as attributes.
func (b *Bus) event(kind obs.Kind, m Message) obs.Event {
	return obs.Event{
		Kind: kind, Round: b.round, Shim: m.From, VM: m.VMID, Host: m.HostID,
		Value: m.Value,
		Attrs: map[string]string{"msg": m.Type.String(), "to": strconv.Itoa(m.To)},
	}
}

// Send enqueues a message for delivery and returns its bus ID. The
// message may be lost (per LossRate) — exactly like a real fabric, the
// sender is not told.
func (b *Bus) Send(m Message) int {
	m.ID = b.nextID
	b.nextID++
	b.sent++
	rec := b.opts.Recorder
	if rec.Enabled() {
		rec.Record(b.event(obs.KindSend, m))
	}
	if b.opts.LossRate > 0 && b.rng.Float64() < b.opts.LossRate {
		b.drop(m, "loss", rec)
		return m.ID
	}
	delay := 0
	if b.opts.MaxDelay > 0 {
		delay = b.rng.Intn(b.opts.MaxDelay + 1)
	}
	if inj := b.opts.Injector; inj != nil {
		v := inj.Judge(b.round, m)
		if v.Drop {
			b.drop(m, v.Cause, rec)
			return m.ID
		}
		delay += v.ExtraDelay
		for k := 1; k <= v.Duplicates; k++ {
			b.duplicated++
			b.inFlight = append(b.inFlight, pending{msg: m, delay: delay + k})
			if rec.Enabled() {
				rec.Record(b.event(obs.KindDup, m))
			}
		}
	}
	b.inFlight = append(b.inFlight, pending{msg: m, delay: delay})
	return m.ID
}

// Deliver advances one round: messages whose delay expired move to their
// destination inboxes in send order (unless the injector reorders the
// batch). It returns how many were delivered.
func (b *Bus) Deliver() int {
	b.round++
	rec := b.opts.Recorder
	inj := b.opts.Injector
	still := b.inFlight[:0] // in-place filter: writes trail the read index
	delivered := 0
	var batch []Message
	if inj != nil {
		// Due messages are staged so the injector can reorder the whole
		// round; the nil-injector path delivers in one pass instead.
		batch = b.batch[:0]
	}
	for _, p := range b.inFlight {
		if p.delay > 0 {
			p.delay--
			still = append(still, p)
			continue
		}
		if inj != nil {
			batch = append(batch, p.msg)
			continue
		}
		delivered += b.deposit(p.msg, rec)
	}
	b.inFlight = still
	if inj != nil {
		b.batch = batch
		if len(batch) > 1 && inj.Reorder(b.round, batch) {
			b.reordered++
			if rec.Enabled() {
				rec.Record(obs.Event{Kind: obs.KindReorder, Round: b.round,
					Shim: ShimlessNode, VM: ShimlessNode, Host: ShimlessNode,
					Value: float64(len(batch))})
			}
		}
		for _, m := range batch {
			delivered += b.deposit(m, rec)
		}
	}
	return delivered
}

// deposit moves one due message into its destination inbox, enforcing the
// inboxLimit tail drop. It returns 1 when delivered, 0 when dropped.
func (b *Bus) deposit(m Message, rec *obs.Recorder) int {
	if m.To < 0 {
		return b.drop(m, "address", rec)
	}
	if m.To >= len(b.inbox) {
		b.inbox = slices.Grow(b.inbox, m.To+1-len(b.inbox))[:m.To+1]
	}
	q := b.inbox[m.To]
	if len(q) >= inboxLimit {
		return b.drop(m, "overflow", rec)
	}
	if len(q) == cap(q) {
		q = b.grow(q)
	}
	b.inbox[m.To] = append(q, m)
	if rec.Enabled() {
		rec.Record(b.event(obs.KindDeliver, m))
	}
	return 1
}

// drop counts one lost or undeliverable message and traces its cause; it
// returns the 0 deposit reports for it.
func (b *Bus) drop(m Message, cause string, rec *obs.Recorder) int {
	b.dropped++
	if rec.Enabled() {
		e := b.event(obs.KindDrop, m)
		e.Attrs["cause"] = cause
		rec.Record(e)
	}
	return 0
}

// grow moves a full inbox into room for twice as many messages, cut from
// the bus's slab: one allocation serves many nodes' inboxes, and an inbox
// that has grown once is reused by every later delivery.
func (b *Bus) grow(q []Message) []Message {
	n := max(2*cap(q), 4)
	if len(b.slab) < n {
		b.slab = make([]Message, max(n, 256))
	}
	room := b.slab[:0:n]
	b.slab = b.slab[n:]
	return append(room, q...)
}

// ShimlessNode marks trace identity fields with no protocol entity (the
// bus-wide reorder event has no single sender, VM, or host).
const ShimlessNode = -1

// Round returns the number of completed Deliver rounds.
func (b *Bus) Round() int { return b.round }

// Partitioned reports whether from→to traffic is currently cut by a named
// partition window of the installed injector. A nil or partition-unaware
// injector reports false. Protocols use this to avoid burning their retry
// budget on destinations the fabric cannot reach.
func (b *Bus) Partitioned(from, to int) (string, bool) {
	type partitioner interface {
		Partitioned(round, from, to int) (string, bool)
	}
	if p, ok := b.opts.Injector.(partitioner); ok {
		return p.Partitioned(b.round, from, to)
	}
	return "", false
}

// FaultStats returns (duplicated, reordered) counters: fabric-duplicated
// copies enqueued and delivery batches shuffled by the injector.
func (b *Bus) FaultStats() (duplicated, reordered int) {
	return b.duplicated, b.reordered
}

// Receive drains and returns the node's inbox in delivery order. The slice
// is the inbox's own memory: it stays valid until the next Deliver, which
// refills it. Copy what must outlive that.
func (b *Bus) Receive(node int) []Message {
	if node < 0 || node >= len(b.inbox) {
		return nil
	}
	msgs := b.inbox[node]
	b.inbox[node] = msgs[:0]
	return msgs
}

// Pending returns how many messages are still in flight.
func (b *Bus) Pending() int { return len(b.inFlight) }

// Stats returns (sent, dropped) counters.
func (b *Bus) Stats() (sent, dropped int) { return b.sent, b.dropped }

// Nodes returns the addresses that currently have queued inbox messages,
// in ascending order.
func (b *Bus) Nodes() []int {
	var out []int
	for n, q := range b.inbox {
		if len(q) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// ErrTimeout reports a request that never received a reply.
var ErrTimeout = errors.New("comm: request timed out")
