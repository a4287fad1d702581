package cost

import (
	"errors"
	"fmt"

	"sheriff/internal/dcn"
)

// Stage identifies one phase of the six-stage pre-copy live migration of
// Sec. III.C / Fig. 2 (after Clark et al., the paper's [17]).
type Stage int

const (
	// Initialization: target selected, block devices mirrored.
	Initialization Stage = iota
	// Reservation: container initialized on the target host.
	Reservation
	// IterativePreCopy: RAM sent, then dirty pages copied iteratively.
	IterativePreCopy
	// StopAndCopy: VM suspended for the final transfer round.
	StopAndCopy
	// Commitment: target confirms a consistent image.
	Commitment
	// Activation: VM resumes on the target.
	Activation
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case Initialization:
		return "initialization"
	case Reservation:
		return "reservation"
	case IterativePreCopy:
		return "iterative-pre-copy"
	case StopAndCopy:
		return "stop-and-copy"
	case Commitment:
		return "commitment"
	case Activation:
		return "activation"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Timeline is the per-stage schedule of one live migration, in abstract
// time units (size / bandwidth). The paper's t₁..t₄ map to:
// t₁ = Initialization+Reservation, t₂ = IterativePreCopy,
// t₃ = StopAndCopy (the ~60 ms downtime), t₄ = Commitment+Activation.
type Timeline struct {
	Durations [6]float64
	Rounds    int     // pre-copy iterations performed
	Downtime  float64 // the StopAndCopy duration (service interruption)
}

// Total returns the end-to-end migration time.
func (t *Timeline) Total() float64 {
	sum := 0.0
	for _, d := range t.Durations {
		sum += d
	}
	return sum
}

// TimelineParams tunes the pre-copy model.
type TimelineParams struct {
	// DirtyRate is the fraction of transferred state re-dirtied per unit
	// of transfer time (must be < 1 for convergence; default 0.2).
	DirtyRate float64
	// StopThreshold stops iterating when the residual dirty set is below
	// this fraction of the VM size (default 0.02).
	StopThreshold float64
	// MaxRounds caps the pre-copy iterations (default 8, after which the
	// residual transfers in stop-and-copy regardless).
	MaxRounds int
	// FixedOverhead is the duration of each of the four bookkeeping
	// stages (init, reservation, commitment, activation; default 0.5).
	FixedOverhead float64
}

func (p TimelineParams) withDefaults() TimelineParams {
	if p.DirtyRate == 0 {
		p.DirtyRate = 0.2
	}
	if p.StopThreshold == 0 {
		p.StopThreshold = 0.02
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = 8
	}
	if p.FixedOverhead == 0 {
		p.FixedOverhead = 0.5
	}
	return p
}

// MigrationTimeline simulates the six-stage pre-copy schedule for moving
// vm to dst at the bottleneck bandwidth of the chosen path. It refines
// the scalar T(e) of Eqn. (1) into the stage structure of Fig. 2: round k
// of pre-copy transfers DirtyRate^k of the VM state, and stop-and-copy
// ships the final residual while the VM is suspended.
func (m *Model) MigrationTimeline(vm *dcn.VM, dst *dcn.Host, p TimelineParams) (*Timeline, error) {
	src := vm.Host()
	if src == nil {
		return nil, errors.New("cost: VM is not placed")
	}
	p = p.withDefaults()
	if p.DirtyRate >= 1 || p.DirtyRate < 0 {
		return nil, fmt.Errorf("cost: DirtyRate must be in [0,1), got %v", p.DirtyRate)
	}
	tl := &Timeline{}
	tl.Durations[Initialization] = p.FixedOverhead
	tl.Durations[Reservation] = p.FixedOverhead
	tl.Durations[Commitment] = p.FixedOverhead
	tl.Durations[Activation] = p.FixedOverhead

	if src == dst || src.Rack() == dst.Rack() {
		// Rack-internal move: the fabric is not involved; model the
		// transfer at unit bandwidth.
		tl.Durations[IterativePreCopy] = vm.Capacity
		tl.Durations[StopAndCopy] = vm.Capacity * p.StopThreshold
		tl.Rounds = 1
		tl.Downtime = tl.Durations[StopAndCopy]
		return tl, nil
	}
	bw, err := m.bottleneckBandwidth(src.Rack(), dst.Rack())
	if err != nil {
		return nil, err
	}
	remaining := vm.Capacity
	for tl.Rounds = 0; tl.Rounds < p.MaxRounds; {
		tl.Durations[IterativePreCopy] += remaining / bw
		tl.Rounds++
		remaining *= p.DirtyRate
		if remaining <= p.StopThreshold*vm.Capacity {
			break
		}
	}
	tl.Durations[StopAndCopy] = remaining / bw
	tl.Downtime = tl.Durations[StopAndCopy]
	return tl, nil
}

// bottleneckBandwidth returns the minimum available bandwidth along the
// cheapest path between two racks.
func (m *Model) bottleneckBandwidth(src, dst *dcn.Rack) (float64, error) {
	var buf [16]int
	edges, ok := m.transFor(src.NodeID, dst.NodeID).PathEdges(src.NodeID, dst.NodeID, buf[:0])
	if !ok {
		return 0, ErrBandwidthBelowFloor
	}
	min := -1.0
	for _, id := range edges {
		e := m.cluster.Graph.EdgeAt(id)
		if e.Bandwidth <= 0 {
			return 0, ErrBandwidthBelowFloor
		}
		if min < 0 || e.Bandwidth < min {
			min = e.Bandwidth
		}
	}
	if min <= 0 {
		return 0, ErrBandwidthBelowFloor
	}
	return min, nil
}
