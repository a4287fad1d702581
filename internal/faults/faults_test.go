package faults

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sheriff/internal/comm"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"full", Plan{Seed: 3, Drop: 0.2, Delay: 1, Jitter: 2, DupRate: 0.1, ReorderRate: 0.3,
			Links:      []LinkDrop{{From: 0, To: 1, Drop: 1}},
			Partitions: []Partition{{Start: 2, Rounds: 3, Nodes: []int{0}}}}, true},
		{"negative drop", Plan{Drop: -0.1}, false},
		{"drop one", Plan{Drop: 1}, false},
		{"negative delay", Plan{Delay: -1}, false},
		{"negative jitter", Plan{Jitter: -2}, false},
		{"dup one", Plan{DupRate: 1}, false},
		{"reorder negative", Plan{ReorderRate: -0.5}, false},
		{"link drop above one", Plan{Links: []LinkDrop{{Drop: 1.5}}}, false},
		{"partition negative start", Plan{Partitions: []Partition{{Start: -1, Nodes: []int{0}}}}, false},
		{"partition no nodes", Plan{Partitions: []Partition{{Start: 0}}}, false},
		{"NaN drop", Plan{Drop: math.NaN()}, false},
		{"NaN dup", Plan{DupRate: math.NaN()}, false},
		{"NaN reorder", Plan{ReorderRate: math.NaN()}, false},
		{"NaN link drop", Plan{Links: []LinkDrop{{Drop: math.NaN()}}}, false},
		// The ceiling: at it is usable, one past it is not.
		{"delay at ceiling", Plan{Delay: MaxRound}, true},
		{"jitter at ceiling", Plan{Jitter: MaxRound}, true},
		{"partition ends at ceiling", Plan{Partitions: []Partition{{Start: MaxRound - 3, Rounds: 3, Nodes: []int{0}}}}, true},
		{"delay past ceiling", Plan{Delay: MaxRound + 1}, false},
		{"jitter past ceiling", Plan{Jitter: MaxRound + 1}, false},
		{"partition ends past ceiling", Plan{Partitions: []Partition{{Start: MaxRound - 2, Rounds: 3, Nodes: []int{0}}}}, false},
		// Each of these once broke Judge or Send: Intn(Jitter+1) panicked,
		// Delay+jitter wrapped negative and delivered at once, and
		// Start+Rounds wrapped so that the window never opened.
		{"jitter max int", Plan{Jitter: math.MaxInt}, false},
		{"delay max int", Plan{Delay: math.MaxInt, Jitter: 1}, false},
		{"partition rounds max int", Plan{Partitions: []Partition{{Start: 1, Rounds: math.MaxInt, Nodes: []int{0}}}}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestPlanWithDefaults(t *testing.T) {
	p := Plan{Partitions: []Partition{
		{Nodes: []int{1, 2}},
		{Name: "core-cut", Start: 4, Rounds: 3, Nodes: []int{0}},
	}}
	d := p.WithDefaults()
	if d.Partitions[0].Name != "partition-0" || d.Partitions[0].Rounds != 1 {
		t.Fatalf("defaults not applied: %+v", d.Partitions[0])
	}
	if d.Partitions[1].Name != "core-cut" || d.Partitions[1].Rounds != 3 {
		t.Fatalf("set fields not preserved: %+v", d.Partitions[1])
	}
	// The receiver's partition slice must not be mutated.
	if p.Partitions[0].Name != "" {
		t.Fatal("WithDefaults mutated its receiver")
	}
}

func TestPartitionWindow(t *testing.T) {
	inj, err := New(Plan{Partitions: []Partition{{Name: "p", Start: 2, Rounds: 3, Nodes: []int{0, 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range map[int]bool{0: false, 1: false, 2: true, 4: true, 5: false} {
		if _, got := inj.Partitioned(round, 0, 7); got != want {
			t.Errorf("round %d: partitioned = %v, want %v", round, got, want)
		}
	}
	// Both endpoints inside the isolated set still talk to each other.
	if _, cut := inj.Partitioned(3, 0, 1); cut {
		t.Error("intra-partition traffic should pass")
	}
	if v := inj.Judge(3, comm.Message{From: 0, To: 7}); !v.Drop || !strings.HasPrefix(v.Cause, "partition:") {
		t.Errorf("cross-cut message not dropped: %+v", v)
	}
}

func TestJudgeDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.3, Delay: 1, Jitter: 2, DupRate: 0.2}
	a, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m := comm.Message{From: i % 5, To: (i + 1) % 5, Seq: i}
		va, vb := a.Judge(0, m), b.Judge(0, m)
		if !reflect.DeepEqual(va, vb) {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, va, vb)
		}
	}
}

func TestDeadLinkAndReorder(t *testing.T) {
	inj, err := New(Plan{Seed: 1, Links: []LinkDrop{{From: 2, To: 3, Drop: 1}}, ReorderRate: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if v := inj.Judge(0, comm.Message{From: 2, To: 3}); !v.Drop || v.Cause != "link-loss" {
		t.Fatalf("dead link not dropped: %+v", v)
	}
	if v := inj.Judge(0, comm.Message{From: 3, To: 2}); v.Drop {
		t.Fatalf("reverse direction dropped: %+v", v)
	}
	batch := []comm.Message{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	changed := false
	for i := 0; i < 20 && !changed; i++ {
		if inj.Reorder(i, batch) {
			for j, m := range batch {
				if m.ID != j {
					changed = true
				}
			}
		}
	}
	if !changed {
		t.Fatal("reorder never permuted the batch")
	}
}

// TestBusIntegration drives a real bus under an aggressive plan and
// checks the fault counters move and traffic still flows.
func TestBusIntegration(t *testing.T) {
	inj, err := New(Plan{Seed: 5, Drop: 0.2, DupRate: 0.3, Jitter: 1, ReorderRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bus := comm.NewBus(comm.Options{Injector: inj})
	received := 0
	for round := 0; round < 50; round++ {
		for n := 0; n < 8; n++ {
			bus.Send(comm.Message{Type: comm.MsgRequest, From: n, To: (n + 1) % 8, Seq: round})
		}
		bus.Deliver()
		for n := 0; n < 8; n++ {
			received += len(bus.Receive(n))
		}
	}
	for bus.Pending() > 0 {
		bus.Deliver()
	}
	for n := 0; n < 8; n++ {
		received += len(bus.Receive(n))
	}
	sent, dropped := bus.Stats()
	dup, _ := bus.FaultStats()
	if dropped == 0 || dup == 0 {
		t.Fatalf("plan injected nothing: sent=%d dropped=%d dup=%d", sent, dropped, dup)
	}
	if received != sent-dropped+dup {
		t.Fatalf("conservation: received %d, want sent %d - dropped %d + dup %d = %d",
			received, sent, dropped, dup, sent-dropped+dup)
	}
}

// TestPlanDropDropsMessages: a plan-wide Drop loses about that share of
// the traffic, and every message is either delivered or counted dropped.
func TestPlanDropDropsMessages(t *testing.T) {
	inj, err := New(Plan{Seed: 1, Drop: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bus := comm.NewBus(comm.Options{Injector: inj})
	for i := 0; i < 1000; i++ {
		bus.Send(comm.Message{To: 1})
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

// TestPlanDelayHoldsMessages: with Delay 1 and Jitter 2 every message
// arrives on the second, third or fourth Deliver after its Send, and each
// of the three is drawn.
func TestPlanDelayHoldsMessages(t *testing.T) {
	inj, err := New(Plan{Seed: 7, Delay: 1, Jitter: 2})
	if err != nil {
		t.Fatal(err)
	}
	bus := comm.NewBus(comm.Options{Injector: inj})
	for i := 0; i < 50; i++ {
		bus.Send(comm.Message{To: 3})
	}
	arrived := map[int]int{} // Deliver count -> messages
	for rounds := 1; bus.Pending() > 0; rounds++ {
		if rounds > 10 {
			t.Fatal("messages stuck in flight")
		}
		bus.Deliver()
		arrived[rounds] = len(bus.Receive(3))
	}
	if arrived[1] != 0 || arrived[2] == 0 || arrived[3] == 0 || arrived[4] == 0 ||
		arrived[2]+arrived[3]+arrived[4] != 50 {
		t.Fatalf("arrivals by Deliver count = %v, want all 50 over counts 2, 3 and 4", arrived)
	}
}

// arrival is one delivered message in a drive log.
type arrival struct{ round, id, to int }

// drive sends one message from each of 8 nodes to the next, then one
// Deliver, for 20 rounds over a bus the plan's injector perturbs, then
// delivers until nothing is in flight. Every message's Seq is the round
// it was sent. It fails the test when a message arrives later than the
// plan allows or crossed a partition window open when it was sent, and
// returns what arrived, in order, and the bus.
func drive(t *testing.T, plan Plan) ([]arrival, *comm.Bus) {
	const nodes, rounds = 8, 20
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	plan = inj.Plan()
	// cut tells, without the injector's arithmetic, whether a message
	// sent in round r from one node to another crossed an open window.
	cut := func(r, from, to int) bool {
		for _, w := range plan.Partitions {
			if r >= w.Start && r-w.Start < w.Rounds &&
				slices.Contains(w.Nodes, from) != slices.Contains(w.Nodes, to) {
				return true
			}
		}
		return false
	}
	bus := comm.NewBus(comm.Options{Injector: inj})
	var log []arrival
	deliver := func() {
		bus.Deliver()
		for n := 0; n < nodes; n++ {
			for _, m := range bus.Receive(n) {
				log = append(log, arrival{bus.Round(), m.ID, n})
				if d := bus.Round() - 1 - m.Seq; d < plan.Delay || d > plan.Delay+plan.Jitter+1 {
					t.Fatalf("message %d sent in round %d arrived %d rounds late, want [%d, %d]",
						m.ID, m.Seq, d, plan.Delay, plan.Delay+plan.Jitter+1)
				}
				if cut(m.Seq, m.From, m.To) {
					t.Fatalf("message %d from %d to %d crossed a partition open in round %d", m.ID, m.From, m.To, m.Seq)
				}
			}
		}
	}
	for r := 0; r < rounds; r++ {
		for n := 0; n < nodes; n++ {
			bus.Send(comm.Message{Type: comm.MsgRequest, From: n, To: (n + 1) % nodes, Seq: r})
		}
		deliver()
	}
	for bus.Pending() > 0 {
		deliver()
	}
	return log, bus
}

// FuzzPlan: a plan Validate accepts compiles, and the bus it drives is
// deterministic (two injectors built from one plan deliver the same
// messages in the same rounds), conserving (once drained, received = sent
// - dropped + duplicated) and late by no more than Delay+Jitter rounds (+1
// for a duplicate copy). The first three seeds are plans that broke Judge
// or Send before Validate bounded their round counts.
func FuzzPlan(f *testing.F) {
	f.Add(int64(1), 0.0, 0.0, 0.0, int64(0), int64(math.MaxInt64), int64(0), int64(1), 0.0)
	f.Add(int64(1), 0.0, 0.0, 0.0, int64(math.MaxInt64), int64(1), int64(0), int64(1), 0.0)
	f.Add(int64(1), 0.0, 0.0, 0.0, int64(0), int64(0), int64(1), int64(math.MaxInt64), 0.0)
	f.Add(int64(7), 0.2, 0.0, 0.0, int64(0), int64(1), int64(0), int64(0), 0.0)
	f.Add(int64(42), 0.3, 0.0, 0.0, int64(0), int64(2), int64(0), int64(0), 0.0)
	f.Add(int64(5), 0.0, 0.0, 0.0, int64(0), int64(3), int64(0), int64(0), 0.0)
	f.Add(int64(1), 0.2, 0.1, 0.2, int64(1), int64(1), int64(1), int64(3), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, drop, dup, reorder float64, delay, jitter, start, rounds int64, link float64) {
		plan := Plan{Seed: seed, Drop: drop, DupRate: dup, ReorderRate: reorder,
			Delay: int(delay), Jitter: int(jitter),
			Links:      []LinkDrop{{From: 2, To: 3, Drop: link}},
			Partitions: []Partition{{Start: int(start), Rounds: int(rounds), Nodes: []int{0, 1}}}}
		if plan.Validate() != nil {
			return
		}
		logA, a := drive(t, plan)
		logB, b := drive(t, plan)
		if !slices.Equal(logA, logB) {
			t.Fatalf("one plan, two delivery logs:\n%v\n%v", logA, logB)
		}
		sent, dropped := a.Stats()
		dupped, _ := a.FaultStats()
		if len(logA) != sent-dropped+dupped {
			t.Fatalf("received %d, want sent %d - dropped %d + duplicated %d", len(logA), sent, dropped, dupped)
		}
		sentB, droppedB := b.Stats()
		duppedB, _ := b.FaultStats()
		if sent != sentB || dropped != droppedB || dupped != duppedB {
			t.Fatalf("one plan, two tallies: (%d, %d, %d) vs (%d, %d, %d)", sent, dropped, dupped, sentB, droppedB, duppedB)
		}
	})
}
