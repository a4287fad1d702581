package sheriff

import (
	"fmt"
	"io"

	"sheriff/internal/alert"
	"sheriff/internal/arima"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/experiments"
	"sheriff/internal/faults"
	"sheriff/internal/flow"
	"sheriff/internal/kmedian"
	"sheriff/internal/migrate"
	"sheriff/internal/narnet"
	"sheriff/internal/obs"
	"sheriff/internal/predictor"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Series is an equally spaced univariate time series.
	Series = timeseries.Series
	// ARIMAModel is a fitted ARIMA(p,d,q) model.
	ARIMAModel = arima.Model
	// ARIMAOrder selects (p, d, q).
	ARIMAOrder = arima.Order
	// NARNET is a trained nonlinear autoregressive neural network.
	NARNET = narnet.Network
	// NARNETConfig selects the NARNET(ni, nh) architecture.
	NARNETConfig = narnet.Config
	// Selector performs dynamic model selection over forecaster pools.
	Selector = predictor.Selector
	// Candidate is one member of a Selector pool.
	Candidate = predictor.Candidate
	// Forecaster is anything that can predict a series' future.
	Forecaster = predictor.Forecaster

	// Profile is one normalized workload profile W = [CPU, MEM, IO, TRF].
	Profile = traces.Profile
	// Alert is one ALERT message.
	Alert = alert.Alert
	// Thresholds holds the per-component ALERT trigger levels.
	Thresholds = alert.Thresholds

	// Cluster models racks, hosts and VMs over a wired topology.
	Cluster = dcn.Cluster
	// Rack is one basic DCN unit (ToR + hosts + shim).
	Rack = dcn.Rack
	// Host is a physical server.
	Host = dcn.Host
	// VM is a virtual machine.
	VM = dcn.VM
	// CostModel evaluates the Eqn. (1) migration cost.
	CostModel = cost.Model
	// CostParams holds C_r, C_d, δ, η, B_t.
	CostParams = cost.Params
	// Shim is a rack's delegation node running Algs. 1–4.
	Shim = migrate.Shim
	// MigrationReport summarizes one shim management round.
	MigrationReport = migrate.Report

	// SimConfig sizes a simulated DCN.
	SimConfig = sim.Config
	// Simulation is a built simulated DCN.
	Simulation = sim.Sim
	// CompareResult is one Sheriff-vs-centralized data point.
	CompareResult = sim.CompareResult
	// FigureTable is one regenerated paper figure.
	FigureTable = experiments.Table

	// SARIMAModel is a fitted seasonal ARIMA model.
	SARIMAModel = arima.SeasonalModel
	// SARIMAOrder selects (p,d,q)(P,D,Q)[s].
	SARIMAOrder = arima.SeasonalOrder
	// Decomposition is a trend/seasonal/residual split of a series.
	Decomposition = timeseries.Decomposition
	// FlowNetwork models the traffic plane for FLOWREROUTE.
	FlowNetwork = flow.Network
	// Flow is one routed traffic aggregate.
	Flow = flow.Flow
	// Runtime is the assembled predict→alert→manage loop.
	Runtime = runtime.Runtime
	// RuntimeOptions configures a Runtime.
	RuntimeOptions = runtime.Options
	// RuntimeStats summarizes one Runtime step.
	RuntimeStats = runtime.StepStats
	// MigrationTimeline is the Fig. 2 six-stage live-migration schedule.
	MigrationTimeline = cost.Timeline
	// CostTimelineParams tunes the pre-copy timeline model.
	CostTimelineParams = cost.TimelineParams

	// Recorder collects structured observability events (see internal/obs).
	// A nil *Recorder is a valid, zero-cost no-op everywhere one is
	// accepted.
	Recorder = obs.Recorder
	// Event is one structured observability event.
	Event = obs.Event
	// EventSink receives recorded events (e.g. the JSONL trace writer).
	EventSink = obs.Sink
	// RequestPolicy decides whether a destination accepts a REQUEST — the
	// injectable admission hook on migrate.Params and migrate.DistOptions,
	// installable per shim after construction via Shim.SetRequestPolicy.
	RequestPolicy = migrate.RequestPolicy
	// PredictorOptions configures NewPredictor (pool family, season
	// period, fitness window, seed). The zero value builds the paper's
	// default ARIMA+NARNET pool.
	PredictorOptions = predictor.Options
	// FaultPlan declares one seeded wire-fault scenario for chaos runs
	// (see internal/faults); compile it with faults.New and hand the
	// injector to comm.Options.
	FaultPlan = faults.Plan

	// MigrationOptions is the per-invocation migration configuration
	// (Eqn. (6) rack constraint, admission hook, tracing).
	MigrationOptions = migrate.MigrationOptions
	// MigrationResult summarizes one Migrate invocation.
	MigrationResult = migrate.MigrationResult
	// Severity is an alert severity tier (watch < urgent < critical).
	Severity = alert.Severity

	// TraceOptions selects and configures a trace-generator family
	// (kind, seed, hours, surge parameters) behind NewTraceGenerator —
	// the unified entry point that subsumed the per-family constructors.
	TraceOptions = traces.Options
	// TraceKind names a trace-generator family (diurnal, lite, surge,
	// surge-lite).
	TraceKind = traces.Kind
	// TraceGenerator mints per-VM profile streams for one family.
	TraceGenerator = traces.Generator
	// TraceSource is one VM's replayable profile stream.
	TraceSource = traces.Source
	// TraceRegime is a surge generator's regime label at one step.
	TraceRegime = traces.Regime
	// SurgeParams tunes the regime-switching surge model (dwell time,
	// regime mix, rack correlation, intensity).
	SurgeParams = traces.SurgeParams
	// BurstModel is the change-point-gated Holt forecaster: Page–Hinkley
	// detection on one-step residuals re-anchors a fast-adapting trend
	// when the workload jumps regimes.
	BurstModel = predictor.Burst
	// BurstConfig tunes the burst forecaster's detector and smoothing.
	BurstConfig = predictor.BurstConfig
	// EarlyWarnScore grades a forecast as an operator would: overload
	// episodes detected, pre-alert precision, and lead time.
	EarlyWarnScore = experiments.EarlyWarnScore
	// EarlyWarnPoint is one alert threshold's operating point on the
	// lead-time vs false-alarm curve.
	EarlyWarnPoint = experiments.EarlyWarnPoint
	// SurgeGridConfig sizes the regime × predictor surge evaluation
	// (`sheriffsim -mode surge`).
	SurgeGridConfig = experiments.SurgeConfig
	// SurgeGridResult is the full surge grid plus the cluster pass.
	SurgeGridResult = experiments.SurgeResult
	// SurgeGridCell is one (regime, candidate) cell of the surge grid.
	SurgeGridCell = experiments.SurgeCell
)

// Predictor pool kinds for PredictorOptions.Pool.
const (
	// PredictorPoolDefault is the paper's ARIMA+NARNET pool.
	PredictorPoolDefault = predictor.PoolDefault
	// PredictorPoolExtended adds Holt and Holt–Winters candidates.
	PredictorPoolExtended = predictor.PoolExtended
)

// Topology kinds for SimConfig.Kind.
const (
	FatTree = sim.FatTree
	BCube   = sim.BCube
)

// Trace-generator families for TraceOptions.Kind.
const (
	// TraceDiurnal is the paper's diurnal workload model (the default).
	TraceDiurnal = traces.Diurnal
	// TraceLite is the memory-lean counter-based generator.
	TraceLite = traces.Lite
	// TraceSurge layers regime-switching surges (training-job waves,
	// flash crowds, correlated rack bursts) over the diurnal base.
	TraceSurge = traces.Surge
	// TraceSurgeLite layers the same surges over the lite base, with
	// O(1) random access.
	TraceSurgeLite = traces.SurgeLite
)

// NewSeries wraps raw observations in a Series.
func NewSeries(data []float64) *Series { return timeseries.New(data) }

// FitARIMA fits an ARIMA(p,d,q) to the data by Hannan–Rissanen.
func FitARIMA(data []float64, p, d, q int) (*ARIMAModel, error) {
	return arima.Fit(timeseries.New(data), arima.Order{P: p, D: d, Q: q})
}

// AutoARIMA selects the order with minimal AIC over a small Box–Jenkins
// grid and fits it.
func AutoARIMA(data []float64) (*ARIMAModel, error) {
	return arima.AutoFit(timeseries.New(data), arima.DefaultSearchSpace)
}

// TrainNARNET trains a NARNET(inputs, hidden) on the data.
func TrainNARNET(data []float64, inputs, hidden int, seed int64) (*NARNET, error) {
	return narnet.Train(timeseries.New(data), narnet.Config{Inputs: inputs, Hidden: hidden, Seed: seed})
}

// FitSARIMA fits a seasonal ARIMA(p,d,q)(P,D,Q)[period] to the data.
func FitSARIMA(data []float64, order SARIMAOrder) (*SARIMAModel, error) {
	return arima.FitSeasonal(timeseries.New(data), order)
}

// Decompose splits a seasonal series into trend + seasonal + residual
// (classical additive decomposition).
func Decompose(data []float64, period int) (*Decomposition, error) {
	return timeseries.Decompose(timeseries.New(data), period)
}

// DetectPeriod estimates the dominant season length of the data via the
// ACF, or 0 when none stands out.
func DetectPeriod(data []float64, minP, maxP int) int {
	return timeseries.DetectPeriod(timeseries.New(data), minP, maxP)
}

// NewRuntime assembles the full predict→alert→manage loop over a
// populated cluster.
func NewRuntime(cluster *Cluster, model *CostModel, opts RuntimeOptions) (*Runtime, error) {
	return runtime.New(cluster, model, opts)
}

// NewFlowNetwork wraps a cluster's topology for flow routing and
// FLOWREROUTE.
func NewFlowNetwork(cluster *Cluster) *FlowNetwork {
	return flow.NewNetwork(cluster.Graph)
}

// NewPredictor builds the paper's dynamic-selection predictor on the
// training data: the candidate pool the options select, ranked each step
// by the sliding-window MSE of Eqn. (14). The zero PredictorOptions give
// the default two-ARIMA + two-NARNET pool.
func NewPredictor(data []float64, opts PredictorOptions) (*Selector, error) {
	return predictor.New(timeseries.New(data), opts)
}

// HoltWintersModel is a fitted exponential-smoothing model.
type HoltWintersModel = smoothing.Model

// FitHoltWinters fits additive Holt–Winters with the given season length
// (smoothing constants optimized by grid search).
func FitHoltWinters(data []float64, period int) (*HoltWintersModel, error) {
	return smoothing.Fit(timeseries.New(data), smoothing.Config{Method: smoothing.HoltWinters, Period: period})
}

// DefaultThresholds returns 0.9 per profile component.
func DefaultThresholds() Thresholds { return alert.DefaultThresholds() }

// EvaluateAlert applies the ALERT rule of Sec. IV.C to a predicted
// profile.
func EvaluateAlert(p Profile, th Thresholds) (value float64, fired bool) {
	return alert.Evaluate(p, th)
}

// NewFatTreeCluster builds a k-pod Fat-Tree cluster with the given host
// shape and returns it with its cost model and one shim per rack.
func NewFatTreeCluster(pods, hostsPerRack int, hostCapacity float64) (*Cluster, *CostModel, []*Shim, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		return nil, nil, nil, err
	}
	return assemble(ft.Graph, hostsPerRack, hostCapacity)
}

// NewBCubeCluster builds a BCube(n,1) cluster (n² server nodes).
func NewBCubeCluster(switchesPerLevel, hostsPerRack int, hostCapacity float64) (*Cluster, *CostModel, []*Shim, error) {
	b, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: switchesPerLevel})
	if err != nil {
		return nil, nil, nil, err
	}
	return assemble(b.Graph, hostsPerRack, hostCapacity)
}

func assemble(g *topology.Graph, hostsPerRack int, hostCapacity float64) (*Cluster, *CostModel, []*Shim, error) {
	cluster, err := dcn.NewCluster(g, dcn.Config{
		HostsPerRack: hostsPerRack,
		HostCapacity: hostCapacity,
		ToRCapacity:  hostCapacity * float64(hostsPerRack),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		return nil, nil, nil, err
	}
	shims := make([]*Shim, 0, len(cluster.Racks))
	params := migrate.DefaultParams()
	for _, r := range cluster.Racks {
		s, err := migrate.NewShim(cluster, model, r, params)
		if err != nil {
			return nil, nil, nil, err
		}
		shims = append(shims, s)
	}
	return cluster, model, shims, nil
}

// BuildSimulation constructs a full simulated DCN.
func BuildSimulation(cfg SimConfig) (*Simulation, error) { return sim.Build(cfg) }

// Compare runs one Sheriff-vs-centralized comparison (one data point of
// the paper's Figs. 11–14).
func Compare(cfg SimConfig) (*CompareResult, error) { return sim.Compare(cfg) }

// GenerateFigure regenerates one paper figure ("3" through "14") with the
// given seed.
func GenerateFigure(id string, seed int64) (*FigureTable, error) {
	gen, ok := experiments.Registry[id]
	if !ok {
		return nil, fmt.Errorf("sheriff: unknown figure %q (want one of %v)", id, experiments.FigureIDs())
	}
	return gen(seed)
}

// Figures lists the regenerable figure identifiers in paper order.
func Figures() []string { return experiments.FigureIDs() }

// LocalSearchRatio returns the VMMIGRATION approximation guarantee 3+2/p.
func LocalSearchRatio(p int) float64 { return kmedian.ApproximationRatio(p) }

// Migrate relocates the candidate VMs into the destination hosts with the
// Alg. 3 min-cost matching under the Alg. 4 capacity check — the unified
// entry point that subsumed the VMMigration / VMMigrationOpts /
// VMMigrationWith trio. The zero MigrationOptions reproduce Alg. 3 exactly.
func Migrate(cluster *Cluster, model *CostModel, candidates []*VM, hosts []*Host, o MigrationOptions) (*MigrationResult, error) {
	return migrate.Migrate(cluster, model, candidates, hosts, o)
}

// ClassifySeverity maps an alert value to its severity tier.
func ClassifySeverity(alertValue float64) Severity { return alert.ClassifySeverity(alertValue) }

// NewRecorder builds an event recorder with the default in-memory ring
// and the given sinks. Pass the result to RuntimeOptions.Recorder,
// migrate.Params.Recorder, comm.Options.Recorder, or kmedian
// Options.Recorder — or leave those nil for a zero-cost no-op.
func NewRecorder(sinks ...EventSink) (*Recorder, error) {
	return obs.New(obs.Options{Sinks: sinks})
}

// TraceTo builds a recorder that streams every event to w as JSON Lines
// (one Event object per line, in sequence order). Check Recorder.Err
// after the run for deferred write failures.
func TraceTo(w io.Writer) (*Recorder, error) {
	return NewRecorder(obs.NewJSONL(w))
}

// NewTraceGenerator builds a trace generator for the options' family —
// the unified API behind RuntimeOptions.Traces, tracegen -kind, and
// sheriffd -traces. The zero TraceOptions give the paper's diurnal model.
func NewTraceGenerator(o TraceOptions) (TraceGenerator, error) { return traces.New(o) }

// ParseTraceKind resolves a family name ("diurnal", "lite", "surge",
// "surge-lite") to its kind; "" is TraceDiurnal.
func ParseTraceKind(name string) (TraceKind, error) { return traces.ParseKind(name) }

// TraceKinds lists the built-in trace-generator families.
func TraceKinds() []TraceKind { return traces.Kinds() }

// FitBurst fits the change-point-gated Holt forecaster to the data under
// cfg. PredictorOptions.Burst adds one, fitted at the zero BurstConfig,
// to a selection pool to let it compete
// under surge workloads.
func FitBurst(data []float64, cfg BurstConfig) (*BurstModel, error) {
	return predictor.FitBurst(timeseries.New(data), cfg)
}

// ScoreEarlyWarning grades predicted against actual as an operator
// would: episodes detected, pre-alert precision, and mean lead time at
// the overload threshold within the maxLead horizon.
func ScoreEarlyWarning(actual, predicted []float64, threshold float64, maxLead int) (EarlyWarnScore, error) {
	return experiments.ScoreEarlyWarning(actual, predicted, threshold, maxLead)
}

// EarlyWarnTradeoff sweeps the alert threshold to trace the lead-time vs
// false-alarm curve; the truth threshold (the overload definition) stays
// fixed.
func EarlyWarnTradeoff(actual, predicted []float64, truthThreshold float64, alertThresholds []float64, maxLead int) ([]EarlyWarnPoint, error) {
	return experiments.EarlyWarnCurve(actual, predicted, truthThreshold, alertThresholds, maxLead)
}

// RunSurgeGrid evaluates the burst-extended predictor pool over the
// surge regime grid and drives correlated rack bursts through the
// sharded step engine (`sheriffsim -mode surge`).
func RunSurgeGrid(cfg SurgeGridConfig) (*SurgeGridResult, error) { return experiments.RunSurge(cfg) }
