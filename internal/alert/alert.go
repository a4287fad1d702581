// Package alert implements Sheriff's pre-alert scheme (Sec. III.B, IV.C):
// each VM's workload profile W = [CPU, MEM, IO, TRF] (every component
// normalized to [0,1]) is checked against a THRESHOLD, and
//
//	ALERT = max(W)  if ∃ x ∈ W with x > THRESHOLD,
//	        0       otherwise.
//
// Alerts come in the three kinds of Sec. III.B — from a server, from the
// local ToR (predicted uplink congestion), or from an outer switch
// (congestion feedback) — and are collected by the delegation node every
// T seconds for the management phase.
package alert

import (
	"fmt"

	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// Kind classifies the origin of an alert (Sec. III.B).
type Kind int

const (
	// FromServer: a host predicts it cannot afford its VMs' workload.
	FromServer Kind = iota
	// FromLocalToR: the shim predicts uplink congestion at its own ToR.
	FromLocalToR
	// FromOuterSwitch: congestion feedback from an aggregation/core or
	// remote ToR switch.
	FromOuterSwitch
)

// String names the alert kind.
func (k Kind) String() string {
	switch k {
	case FromServer:
		return "server"
	case FromLocalToR:
		return "local-tor"
	case FromOuterSwitch:
		return "outer-switch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alert is one ALERT message delivered to a delegation node.
type Alert struct {
	Kind      Kind
	Value     float64 // the ALERT value (max of the offending profile)
	VMID      int     // offending VM (FromServer)
	HostID    int     // offending host (FromServer)
	RackIndex int     // rack of origin
	SwitchID  int     // offending switch node (FromOuterSwitch / FromLocalToR)
}

// Severity is the tiered urgency of an alert, derived from the ALERT
// value: watch (reported activity, monitor), urgent (developing
// situation), critical (immediate danger).
type Severity int

const (
	// SeverityNone: the VM raised no alert (ALERT = 0).
	SeverityNone Severity = iota
	// SeverityWatch: an alert fired but stays below the urgent cut.
	SeverityWatch
	// SeverityUrgent: the predicted overload is developing (ALERT ≥ 0.8).
	SeverityUrgent
	// SeverityCritical: overload is imminent (ALERT ≥ 0.95).
	SeverityCritical
)

// Severity classification cuts. ALERT values are profile maxima in
// [0, 1], so the cuts sit inside the fired range (fired alerts carry the
// offending component's value, > the 0.9 default threshold in the common
// configuration, but lower thresholds can fire watch-tier alerts).
const (
	UrgentAt   = 0.8
	CriticalAt = 0.95
)

// String names the severity tier.
func (s Severity) String() string {
	switch s {
	case SeverityNone:
		return "none"
	case SeverityWatch:
		return "watch"
	case SeverityUrgent:
		return "urgent"
	case SeverityCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// ClassifySeverity maps an ALERT value onto its tier: none for
// non-positive values, then watch / urgent / critical at the fixed cuts.
func ClassifySeverity(v float64) Severity {
	switch {
	case v <= 0:
		return SeverityNone
	case v >= CriticalAt:
		return SeverityCritical
	case v >= UrgentAt:
		return SeverityUrgent
	default:
		return SeverityWatch
	}
}

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

// ComponentForecaster predicts one workload-profile component from its
// history, appending h forecasts to dst (both ARIMA models and NARNETs
// satisfy this; see predictor.Forecaster).
type ComponentForecaster interface {
	ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error)
}

// ProfilePredictor forecasts a full workload profile one collection
// period (T seconds) ahead by running one forecaster per component over
// its own history, as Sec. IV.A prescribes ("respectively process each
// feature … with prediction models that can best explain it").
type ProfilePredictor struct {
	cpu, mem, io, trf     ComponentForecaster
	hCPU, hMem, hIO, hTRF *timeseries.Series
}

// NewProfilePredictor builds a predictor from per-component forecasters
// and their shared-length histories.
func NewProfilePredictor(cpu, mem, io, trf ComponentForecaster) *ProfilePredictor {
	return &ProfilePredictor{
		cpu: cpu, mem: mem, io: io, trf: trf,
		hCPU: timeseries.New(nil), hMem: timeseries.New(nil),
		hIO: timeseries.New(nil), hTRF: timeseries.New(nil),
	}
}

// Observe appends one measured profile to the component histories.
func (pp *ProfilePredictor) Observe(p traces.Profile) {
	pp.hCPU.Append(p.CPU)
	pp.hMem.Append(p.Mem)
	pp.hIO.Append(p.IO)
	pp.hTRF.Append(p.TRF)
}

// HistoryLen returns the number of observed profiles.
func (pp *ProfilePredictor) HistoryLen() int { return pp.hCPU.Len() }

// Predict forecasts the profile one step ahead. Components are clamped
// to [0,1] since the profile is normalized by definition.
func (pp *ProfilePredictor) Predict() (traces.Profile, error) {
	get := func(f ComponentForecaster, h *timeseries.Series) (float64, error) {
		fc, err := f.ForecastFrom(nil, h, 1)
		if err != nil {
			return 0, err
		}
		v := fc[0]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return v, nil
	}
	var p traces.Profile
	var err error
	if p.CPU, err = get(pp.cpu, pp.hCPU); err != nil {
		return p, fmt.Errorf("alert: CPU forecast: %w", err)
	}
	if p.Mem, err = get(pp.mem, pp.hMem); err != nil {
		return p, fmt.Errorf("alert: MEM forecast: %w", err)
	}
	if p.IO, err = get(pp.io, pp.hIO); err != nil {
		return p, fmt.Errorf("alert: IO forecast: %w", err)
	}
	if p.TRF, err = get(pp.trf, pp.hTRF); err != nil {
		return p, fmt.Errorf("alert: TRF forecast: %w", err)
	}
	return p, nil
}

// Histories returns copies of the four component histories in profile
// order [CPU, MEM, IO, TRF] — the state a snapshot must carry to resume
// prediction without refeeding the whole run.
func (pp *ProfilePredictor) Histories() [4][]float64 {
	return [4][]float64{pp.hCPU.Values(), pp.hMem.Values(), pp.hIO.Values(), pp.hTRF.Values()}
}

// RestoreHistories replaces the component histories, in the same order
// Histories returns them. All four must have equal length.
func (pp *ProfilePredictor) RestoreHistories(h [4][]float64) error {
	n := len(h[0])
	for _, c := range h[1:] {
		if len(c) != n {
			return fmt.Errorf("alert: restore: component history lengths differ (%d vs %d)", len(c), n)
		}
	}
	pp.hCPU = timeseries.New(h[0])
	pp.hMem = timeseries.New(h[1])
	pp.hIO = timeseries.New(h[2])
	pp.hTRF = timeseries.New(h[3])
	return nil
}

// Check predicts one step ahead and applies the ALERT rule, returning the
// alert (zero Value when not fired).
func (pp *ProfilePredictor) Check(th Thresholds) (Alert, bool, error) {
	p, err := pp.Predict()
	if err != nil {
		return Alert{}, false, err
	}
	v, fired := Evaluate(p, th)
	return Alert{Kind: FromServer, Value: v}, fired, nil
}

// QueueMonitor watches a ToR switch queue length (Sec. IV.A: "each v_i
// also monitors the queue length of the associated ToR switch") and fires
// a FromLocalToR alert when the predicted queue occupancy crosses the
// threshold fraction of the queue limit.
type QueueMonitor struct {
	history   *timeseries.Series
	forecast  ComponentForecaster
	limit     float64
	threshold float64 // fraction of limit
}

// NewQueueMonitor builds a queue monitor. threshold is a fraction in
// (0,1]; limit is the queue capacity in the same units as observations.
func NewQueueMonitor(f ComponentForecaster, limit, threshold float64) (*QueueMonitor, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("alert: queue limit must be > 0, got %v", limit)
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("alert: queue threshold must be in (0,1], got %v", threshold)
	}
	return &QueueMonitor{
		history:   timeseries.New(nil),
		forecast:  f,
		limit:     limit,
		threshold: threshold,
	}, nil
}

// Observe appends one queue-length sample.
func (q *QueueMonitor) Observe(length float64) { q.history.Append(length) }

// History returns a copy of the observed queue-length samples.
func (q *QueueMonitor) History() []float64 { return q.history.Values() }

// RestoreHistory replaces the observed queue-length samples.
func (q *QueueMonitor) RestoreHistory(h []float64) { q.history = timeseries.New(h) }

// Check predicts the next queue length and fires when it exceeds
// threshold×limit. The alert Value is predicted occupancy in [0,1].
func (q *QueueMonitor) Check() (Alert, bool, error) {
	fc, err := q.forecast.ForecastFrom(nil, q.history, 1)
	if err != nil {
		return Alert{}, false, fmt.Errorf("alert: queue forecast: %w", err)
	}
	occ := fc[0] / q.limit
	if occ < 0 {
		occ = 0
	}
	if occ > 1 {
		occ = 1
	}
	if occ > q.threshold {
		return Alert{Kind: FromLocalToR, Value: occ}, true, nil
	}
	return Alert{}, false, nil
}
