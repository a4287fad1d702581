// Package alert implements Sheriff's pre-alert scheme (Sec. III.B, IV.C):
// each VM's workload profile W = [CPU, MEM, IO, TRF] (every component
// normalized to [0,1]) is checked against a THRESHOLD, and
//
//	ALERT = max(W)  if ∃ x ∈ W with x > THRESHOLD,
//	        0       otherwise.
//
// A delegation node collects two of the three alert kinds of Sec. III.B
// every T seconds for the management phase: from a server, and from the
// local ToR (predicted uplink congestion). The third, congestion feedback
// from an outer switch, reaches no shim: the runtime answers a hot switch
// itself, by FLOWREROUTE on the flows through it.
package alert

import (
	"fmt"

	"sheriff/internal/traces"
)

// Kind classifies the origin of an alert (Sec. III.B).
type Kind int

const (
	// FromServer: a host predicts it cannot afford its VMs' workload.
	FromServer Kind = iota
	// FromLocalToR: the shim predicts uplink congestion at its own ToR.
	FromLocalToR
)

// String names the alert kind.
func (k Kind) String() string {
	switch k {
	case FromServer:
		return "server"
	case FromLocalToR:
		return "local-tor"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alert is one ALERT message delivered to a delegation node.
type Alert struct {
	Kind   Kind
	Value  float64 // the ALERT value (max of the offending profile)
	HostID int     // offending host (FromServer)
}

// UrgentAt is the ALERT value from which an alert reports a developing
// overload rather than mere activity. ALERT values are profile maxima in
// [0, 1]: under the 0.9 default threshold every fired alert is urgent,
// and lower thresholds also fire alerts below the cut.
const UrgentAt = 0.8

// Thresholds holds per-component trigger levels. The paper's motivating
// example is 90% CPU/memory utilization.
type Thresholds struct {
	CPU float64
	Mem float64
	IO  float64
	TRF float64
}

// DefaultThresholds returns 0.9 for every component.
func DefaultThresholds() Thresholds {
	return Thresholds{CPU: 0.9, Mem: 0.9, IO: 0.9, TRF: 0.9}
}

// Evaluate applies the ALERT rule to a (predicted) workload profile:
// the returned value is max(W) when any component exceeds its threshold,
// else 0; fired reports whether the alert triggered.
func Evaluate(p traces.Profile, th Thresholds) (value float64, fired bool) {
	if p.CPU > th.CPU || p.Mem > th.Mem || p.IO > th.IO || p.TRF > th.TRF {
		return p.Max(), true
	}
	return 0, false
}
