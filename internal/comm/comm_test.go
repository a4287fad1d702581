package comm

import (
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	want := map[Type]string{
		MsgAlert: "alert", MsgRequest: "request", MsgAck: "ack",
		MsgReject: "reject", MsgCongestion: "congestion",
	}
	for ty, name := range want {
		if ty.String() != name {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
	if Type(42).String() == "" {
		t.Error("unknown type should render")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{LossRate: 1}).Validate(); err == nil {
		t.Error("LossRate=1 accepted")
	}
	if err := (Options{LossRate: -0.1}).Validate(); err == nil {
		t.Error("negative LossRate accepted")
	}
	if err := (Options{MaxDelay: -1}).Validate(); err == nil {
		t.Error("negative MaxDelay accepted")
	}
}

func TestReliableDeliveryOrder(t *testing.T) {
	bus, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		bus.Send(Message{Type: MsgAlert, From: 0, To: 1, Seq: i})
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

func TestLossRateDropsMessages(t *testing.T) {
	bus, err := NewBus(Options{LossRate: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		bus.Send(Message{To: 1})
	}
	bus.Deliver()
	got := len(bus.Receive(1))
	sent, dropped := bus.Stats()
	if sent != 1000 || got+dropped != 1000 {
		t.Fatalf("sent=%d got=%d dropped=%d", sent, got, dropped)
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("dropped %d of 1000 at rate 0.5", dropped)
	}
}

func TestDelayHoldsMessages(t *testing.T) {
	bus, err := NewBus(Options{MaxDelay: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		bus.Send(Message{To: 3})
	}
	total := 0
	rounds := 0
	for bus.Pending() > 0 {
		total += bus.Deliver()
		rounds++
		if rounds > 10 {
			t.Fatal("messages stuck in flight")
		}
	}
	total += bus.Deliver()
	if got := len(bus.Receive(3)); got != 50 {
		t.Fatalf("received %d of 50", got)
	}
	if rounds < 2 {
		t.Fatalf("all messages arrived in %d rounds despite MaxDelay=2", rounds)
	}
}

func TestNodesListsQueuedInboxes(t *testing.T) {
	bus, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
	bus.Send(Message{To: 5})
	bus.Send(Message{To: 2})
	bus.Deliver()
	nodes := bus.Nodes()
	if len(nodes) != 2 || nodes[0] != 2 || nodes[1] != 5 {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() (int, int) {
		bus, err := NewBus(Options{LossRate: 0.3, MaxDelay: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			bus.Send(Message{To: i % 4})
		}
		for bus.Pending() > 0 {
			bus.Deliver()
		}
		got := 0
		for _, n := range bus.Nodes() {
			got += len(bus.Receive(n))
		}
		_, dropped := bus.Stats()
		return got, dropped
	}
	g1, d1 := run()
	g2, d2 := run()
	if g1 != g2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", g1, d1, g2, d2)
	}
}

// Property: with no loss, every sent message is eventually delivered
// exactly once.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, delayRaw uint8) bool {
		n := int(nRaw%100) + 1
		bus, err := NewBus(Options{MaxDelay: int(delayRaw % 4), Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			bus.Send(Message{To: i % 7, Seq: i})
		}
		for i := 0; i < 10 && bus.Pending() > 0; i++ {
			bus.Deliver()
		}
		bus.Deliver()
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
		bus, err := NewBus(Options{Seed: 7, Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
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

// TestReceiveKeepsInboxUntilDeliver pins Receive's lifetime: the slice it
// returns is the inbox's memory, intact until the next Deliver refills it.
func TestReceiveKeepsInboxUntilDeliver(t *testing.T) {
	bus, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	bus, err := NewBus(Options{})
	if err != nil {
		t.Fatal(err)
	}
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
