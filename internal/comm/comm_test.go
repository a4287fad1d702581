package comm

import (
	"slices"
	"testing"
	"testing/quick"

	"sheriff/internal/obs"
)

func TestTypeString(t *testing.T) {
	want := map[Type]string{
		MsgRequest: "request", MsgAck: "ack", MsgReject: "reject",
		0: "Type(0)", 42: "Type(42)",
	}
	for ty, name := range want {
		if ty.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(ty), ty.String(), name)
		}
	}
}

func TestReliableDeliveryOrder(t *testing.T) {
	bus := NewBus(Options{})
	for i := 0; i < 5; i++ {
		bus.Send(Message{Type: MsgRequest, From: 0, To: 1, Seq: i})
	}
	if got := bus.Deliver(); got != 5 {
		t.Fatalf("delivered %d, want 5", got)
	}
	msgs := bus.Receive(1)
	if len(msgs) != 5 {
		t.Fatalf("received %d", len(msgs))
	}
	for i, m := range msgs {
		if m.Seq != i {
			t.Fatalf("out of order: %v", msgs)
		}
	}
	// Inbox drained.
	if len(bus.Receive(1)) != 0 {
		t.Fatal("inbox not drained")
	}
}

func TestNodesListsQueuedInboxes(t *testing.T) {
	bus := NewBus(Options{})
	bus.Send(Message{To: 5})
	bus.Send(Message{To: 2})
	bus.Deliver()
	nodes := bus.Nodes()
	if len(nodes) != 2 || nodes[0] != 2 || nodes[1] != 5 {
		t.Fatalf("Nodes = %v", nodes)
	}
}

// Property: with no injector, every sent message is delivered exactly
// once, the next round.
func TestConservationProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		bus := NewBus(Options{})
		for i := 0; i < n; i++ {
			bus.Send(Message{To: i % 7, Seq: i})
		}
		if bus.Deliver() != n || bus.Pending() != 0 {
			return false
		}
		got := 0
		seen := map[int]bool{}
		for node := 0; node < 7; node++ {
			for _, m := range bus.Receive(node) {
				if seen[m.ID] {
					return false // duplicate
				}
				seen[m.ID] = true
				got++
			}
		}
		return got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBusSteadyStateAllocs pins the hot path allocation-free: once every
// inbox has grown to its round's traffic, a send/deliver/receive round
// allocates nothing, with and without an injector installed.
func TestBusSteadyStateAllocs(t *testing.T) {
	const nodes = 64
	for _, inj := range []Injector{nil, passInjector{}} {
		bus := NewBus(Options{Injector: inj})
		round := 0
		busRound(bus, nodes, round) // warm: the inboxes and the in-flight queue grow once
		if got := testing.AllocsPerRun(50, func() {
			round++
			busRound(bus, nodes, round)
		}); got != 0 {
			t.Errorf("injector %v: a warm bus round allocates %v times, want 0", inj, got)
		}
	}
}

// TestReservedBusAllocatesNothing pins Reserve: a bus reserved for its
// nodes and for one message a node carries its first rounds without
// allocating beyond what building and reserving it does.
func TestReservedBusAllocatesNothing(t *testing.T) {
	const nodes = 64
	for _, inj := range []Injector{nil, passInjector{}} {
		reserve := testing.AllocsPerRun(20, func() {
			NewBus(Options{Injector: inj}).Reserve(nodes, nodes)
		})
		rounds := testing.AllocsPerRun(20, func() {
			bus := NewBus(Options{Injector: inj})
			bus.Reserve(nodes, nodes)
			for round := 0; round < 3; round++ {
				busRound(bus, nodes, round)
			}
		})
		if rounds != reserve {
			t.Errorf("injector %v: a reserved bus allocates %v times with three rounds, %v without: the rounds allocate", inj, rounds, reserve)
		}
	}
}

// TestReceiveKeepsInboxUntilDeliver pins Receive's lifetime: the slice it
// returns is the inbox's memory, intact until the next Deliver refills it.
func TestReceiveKeepsInboxUntilDeliver(t *testing.T) {
	bus := NewBus(Options{})
	bus.Send(Message{To: 2, Seq: 1})
	bus.Deliver()
	got := bus.Receive(2)
	bus.Send(Message{To: 2, Seq: 2}) // sending leaves the inbox alone
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("Receive = %v, want the one message of seq 1", got)
	}
	if again := bus.Receive(2); len(again) != 0 {
		t.Fatalf("a drained inbox returned %v", again)
	}
	bus.Deliver()
	if next := bus.Receive(2); len(next) != 1 || next[0].Seq != 2 {
		t.Fatalf("after Deliver, Receive = %v, want seq 2", next)
	}
	if bus.Receive(-1) != nil || bus.Receive(99) != nil {
		t.Fatal("an address with no inbox returned messages")
	}
}

// TestNegativeAddressDropped: rack indices are never negative, so a
// message to a negative address is counted as a drop, not queued.
func TestNegativeAddressDropped(t *testing.T) {
	bus := NewBus(Options{})
	bus.Send(Message{To: -3})
	if got := bus.Deliver(); got != 0 {
		t.Fatalf("delivered %d messages to a negative address", got)
	}
	if _, dropped := bus.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if nodes := bus.Nodes(); len(nodes) != 0 {
		t.Fatalf("Nodes = %v after a dropped message", nodes)
	}
}

// TestInboxOverflowTailDrop pins the inbox cap: of the inboxLimit+1
// messages one Deliver queues for a node, the last is dropped, counted and
// traced with cause "overflow", while the first inboxLimit stay queued and
// another node's inbox is unaffected.
func TestInboxOverflowTailDrop(t *testing.T) {
	var events []obs.Event
	rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.Func(func(e obs.Event) error {
		events = append(events, e)
		return nil
	})}})
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(Options{Recorder: rec})
	for i := 0; i <= inboxLimit; i++ {
		bus.Send(Message{To: 1, VMID: i, Seq: i})
	}
	bus.Send(Message{To: 2, VMID: -1})
	if got := bus.Deliver(); got != inboxLimit+1 {
		t.Fatalf("delivered %d, want %d", got, inboxLimit+1)
	}
	if _, dropped := bus.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	q := bus.Receive(1)
	if len(q) != inboxLimit || q[len(q)-1].Seq != inboxLimit-1 {
		t.Fatalf("node 1 holds %d messages ending at seq %d, want %d ending at %d",
			len(q), q[len(q)-1].Seq, inboxLimit, inboxLimit-1)
	}
	if len(bus.Receive(2)) != 1 {
		t.Fatal("the overflow of node 1 touched node 2's inbox")
	}
	if n := rec.Count(obs.KindDrop); n != 1 {
		t.Fatalf("%d drop events, want 1", n)
	}
	i := slices.IndexFunc(events, func(e obs.Event) bool { return e.Kind == obs.KindDrop })
	if i < 0 {
		t.Fatal("no drop event reached the sink")
	}
	if e := events[i]; e.VM != inboxLimit || e.Attrs["cause"] != "overflow" {
		t.Fatalf("drop event for VM %d with cause %q, want VM %d with cause overflow", e.VM, e.Attrs["cause"], inboxLimit)
	}
}
