package comm

import (
	"testing"
)

// busRound pumps one synthetic protocol round through the bus: every node
// sends to its successor, one Deliver moves the batch, every node drains
// its inbox. The shape mirrors the distributed migration protocol's
// propose/deliver/collect cadence without any protocol logic on top.
func busRound(b *Bus, nodes, round int) {
	for n := 0; n < nodes; n++ {
		b.Send(Message{Type: MsgRequest, From: n, To: (n + 1) % nodes, VMID: round, HostID: n, Seq: round*nodes + n})
	}
	b.Deliver()
	for n := 0; n < nodes; n++ {
		b.Receive(n)
	}
}

// BenchmarkBusSendDeliver measures the raw send/deliver/receive cycle —
// the path every injected fault rides on. The nil-injector variant is the
// overhead budget for the faults hook (<= 2% median over -count 5).
func BenchmarkBusSendDeliver(b *testing.B) {
	const nodes = 64
	bus := NewBus(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		busRound(bus, nodes, i)
	}
}

// passInjector is the cheapest possible Injector: zero verdicts, no
// reordering. It isolates the cost of the hook itself (interface calls on
// every Send plus batch staging in Deliver) from any fault logic.
type passInjector struct{}

func (passInjector) Judge(int, Message) Verdict  { return Verdict{} }
func (passInjector) Reorder(int, []Message) bool { return false }

// BenchmarkBusSendDeliverInjected measures the same cycle with a no-fault
// injector installed — the price of turning the hook on at all.
func BenchmarkBusSendDeliverInjected(b *testing.B) {
	const nodes = 64
	bus := NewBus(Options{Injector: passInjector{}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		busRound(bus, nodes, i)
	}
}
