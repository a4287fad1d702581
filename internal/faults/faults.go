package faults

import (
	"fmt"
	"math/rand"

	"sheriff/internal/comm"
)

// LinkDrop overrides the plan-wide drop probability for one directed
// node pair (bus addresses, i.e. rack indices).
type LinkDrop struct {
	From, To int
	// Drop is the per-message drop probability on this link, in [0,1].
	// 1 models a dead link.
	Drop float64
}

// Partition is one named partition window: for Rounds delivery rounds
// starting at Start, the Nodes are cut off from every node outside the
// set — messages crossing the cut are dropped with cause
// "partition:<name>".
type Partition struct {
	// Name tags drop events and the migrate degradation ladder; empty
	// names are filled by WithDefaults ("partition-<i>").
	Name string
	// Start is the first bus round the cut applies (0 = from the start).
	Start int
	// Rounds is how long the cut lasts; zero means the default (1).
	Rounds int
	// Nodes is the isolated side of the cut.
	Nodes []int
}

// Plan declares one seeded fault scenario. The zero Plan injects nothing;
// zero numeric fields keep their no-fault meaning except where noted
// (Partition.Rounds), following the Validate()/WithDefaults() option
// convention.
type Plan struct {
	// Seed drives every probabilistic draw (drop, jitter, duplication,
	// reordering). Same seed + same plan + same traffic = same faults.
	Seed int64
	// Drop is the plan-wide per-message drop probability, in [0,1).
	Drop float64
	// Links overrides Drop per directed link.
	Links []LinkDrop
	// Delay holds every message back this many delivery rounds, at most
	// MaxRound.
	Delay int
	// Jitter adds a uniform extra delay in [0, Jitter] rounds on top, at
	// most MaxRound.
	Jitter int
	// DupRate duplicates each message once with this probability, in [0,1).
	DupRate float64
	// ReorderRate shuffles each multi-message delivery batch with this
	// probability, in [0,1).
	ReorderRate float64
	// Partitions are the named partition windows.
	Partitions []Partition
}

// MaxRound is the ceiling on every round count a plan names: Delay,
// Jitter, and the round a partition window ends, Start+Rounds. A protocol
// round is two bus rounds, so a run at the default DistOptions.MaxRounds
// spans 60 and no scenario needs more; past the ceiling, the injector's
// jitter draw and the bus's delay arithmetic would overflow.
const MaxRound = 1 << 16

// Validate reports whether the plan is usable. Probabilities must lie in
// [0,1) ([0,1] for LinkDrop, where 1 is a dead link); delays must lie in
// [0, MaxRound]; partition windows must not start before round 0 or end
// past MaxRound.
func (p Plan) Validate() error {
	// Written as !(in range) so that NaN is refused too.
	if !(p.Drop >= 0 && p.Drop < 1) {
		return fmt.Errorf("faults: Drop must be in [0,1), got %v", p.Drop)
	}
	if !(p.DupRate >= 0 && p.DupRate < 1) {
		return fmt.Errorf("faults: DupRate must be in [0,1), got %v", p.DupRate)
	}
	if !(p.ReorderRate >= 0 && p.ReorderRate < 1) {
		return fmt.Errorf("faults: ReorderRate must be in [0,1), got %v", p.ReorderRate)
	}
	if p.Delay < 0 || p.Delay > MaxRound {
		return fmt.Errorf("faults: Delay must be in [0,%d], got %d", MaxRound, p.Delay)
	}
	if p.Jitter < 0 || p.Jitter > MaxRound {
		return fmt.Errorf("faults: Jitter must be in [0,%d], got %d", MaxRound, p.Jitter)
	}
	for i, l := range p.Links {
		if !(l.Drop >= 0 && l.Drop <= 1) {
			return fmt.Errorf("faults: Links[%d].Drop must be in [0,1], got %v", i, l.Drop)
		}
	}
	for i, w := range p.Partitions {
		if w.Start < 0 {
			return fmt.Errorf("faults: Partitions[%d].Start must be >= 0, got %d", i, w.Start)
		}
		if w.Rounds < 0 {
			return fmt.Errorf("faults: Partitions[%d].Rounds must be >= 0 (0 = default), got %d", i, w.Rounds)
		}
		if w.Start > MaxRound-w.Rounds { // Start+Rounds > MaxRound, without the overflow
			return fmt.Errorf("faults: Partitions[%d] must end by round %d, got %d+%d", i, MaxRound, w.Start, w.Rounds)
		}
		if len(w.Nodes) == 0 {
			return fmt.Errorf("faults: Partitions[%d] isolates no nodes", i)
		}
	}
	return nil
}

// WithDefaults returns the plan with zero fields replaced by their
// defaults: unnamed partitions become "partition-<i>" and zero-length
// windows last 1 round. Probabilistic zero fields keep their meaning (no
// fault of that kind).
func (p Plan) WithDefaults() Plan {
	if len(p.Partitions) > 0 {
		ws := make([]Partition, len(p.Partitions))
		copy(ws, p.Partitions)
		for i := range ws {
			if ws[i].Name == "" {
				ws[i].Name = fmt.Sprintf("partition-%d", i)
			}
			if ws[i].Rounds == 0 {
				ws[i].Rounds = 1
			}
		}
		p.Partitions = ws
	}
	return p
}

// Injector executes a Plan against a comm.Bus. It implements
// comm.Injector plus the optional Partitioned probe the bus forwards to
// protocols. Like the bus it serves, it is not safe for concurrent use.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	links map[[2]int]float64
	// isolated[i] answers "is node n inside partition window i".
	isolated []map[int]bool
}

var _ comm.Injector = (*Injector)(nil)

// New compiles a validated plan into an injector.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	plan = plan.WithDefaults()
	inj := &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
	if len(plan.Links) > 0 {
		inj.links = make(map[[2]int]float64, len(plan.Links))
		for _, l := range plan.Links {
			inj.links[[2]int{l.From, l.To}] = l.Drop
		}
	}
	inj.isolated = make([]map[int]bool, len(plan.Partitions))
	for i, w := range plan.Partitions {
		inj.isolated[i] = make(map[int]bool, len(w.Nodes))
		for _, n := range w.Nodes {
			inj.isolated[i][n] = true
		}
	}
	return inj, nil
}

// Plan returns the compiled plan (with defaults applied).
func (in *Injector) Plan() Plan { return in.plan }

// Partitioned reports the first partition window cutting from→to traffic
// at the given round. The bus forwards this to protocols via
// comm.Bus.Partitioned.
func (in *Injector) Partitioned(round, from, to int) (string, bool) {
	for i, w := range in.plan.Partitions {
		if round < w.Start || round >= w.Start+w.Rounds {
			continue
		}
		if in.isolated[i][from] != in.isolated[i][to] {
			return w.Name, true
		}
	}
	return "", false
}

// Judge implements comm.Injector: partition cuts apply first (no rng
// draw, so windows do not perturb the drop/delay/duplication streams of
// messages they never see), then the per-link or plan-wide drop draw,
// then delay jitter and duplication.
func (in *Injector) Judge(round int, m comm.Message) comm.Verdict {
	if name, cut := in.Partitioned(round, m.From, m.To); cut {
		return comm.Verdict{Drop: true, Cause: "partition:" + name}
	}
	drop, cause := in.plan.Drop, "fault-loss"
	if d, ok := in.links[[2]int{m.From, m.To}]; ok {
		drop, cause = d, "link-loss"
	}
	if drop > 0 && (drop >= 1 || in.rng.Float64() < drop) {
		return comm.Verdict{Drop: true, Cause: cause}
	}
	v := comm.Verdict{ExtraDelay: in.plan.Delay}
	if in.plan.Jitter > 0 {
		v.ExtraDelay += in.rng.Intn(in.plan.Jitter + 1)
	}
	if in.plan.DupRate > 0 && in.rng.Float64() < in.plan.DupRate {
		v.Duplicates = 1
	}
	return v
}

// Reorder implements comm.Injector: with probability ReorderRate the
// delivery batch is shuffled (seeded Fisher–Yates).
func (in *Injector) Reorder(round int, batch []comm.Message) bool {
	if in.plan.ReorderRate <= 0 || len(batch) < 2 {
		return false
	}
	if in.rng.Float64() >= in.plan.ReorderRate {
		return false
	}
	in.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return true
}
