// Package runtime drives the full Sheriff loop end to end in simulated
// time: every period T each shim collects its VMs' measured workload
// profiles, forecasts the next period, raises pre-alerts, and manages its
// region — VM migration for server/ToR alerts, flow rerouting for hot
// outer switches (Sec. II–V assembled).
//
// The runtime collects profiles; it does not generate them. StepExternal,
// the one way into a period, takes what the VMs reported. A caller that
// wants synthetic input draws it from traces.Reporters over TraceGen, the
// generator Options.Traces selects.
//
// There is one step engine, the sharded SoA engine (sharded.go): VM state
// in flat arrays partitioned into contiguous rack-range shards owned by
// persistent workers, sized for 5,000-rack / million-VM fabrics. Its
// results do not depend on the shard count. The tests pin them, period by
// period, to testdata/engine_digests.golden.json, at 1, 2 and 5 shards and
// across a snapshot and restore after every period.
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/flow"
	"sheriff/internal/metrics"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// Options configures a Runtime.
type Options struct {
	Thresholds alert.Thresholds // ALERT trigger levels (default 0.9)
	Seed       int64
	// FlowRate maps a dependent VM pair's mean TRF to a flow rate in
	// link-capacity units (default 0.05 + 0.4·TRF).
	FlowRate func(trf float64) float64
	// DisableReroute turns FLOWREROUTE off (hot switches stay hot) — the
	// ablation baseline.
	DisableReroute bool
	// Recorder, when non-nil, receives per-step phase timings, per-rack
	// alert counts, and per-shim manage timings, and is threaded into
	// every shim so migration protocol events carry the current step
	// number.
	Recorder *obs.Recorder
	// DeepPredict enables the per-rack deep forecasting pool: once a
	// rack has DeepFitAfter observations of aggregate stress, a dynamic
	// model-selection pool (2 ARIMA + 2 NARNET) is fitted over it and
	// supplies next-period early warnings alongside the cheap per-VM
	// triage. Fitted pools are carried by Snapshot so a restart resumes
	// without refitting.
	DeepPredict bool
	// DeepFitAfter is the rack-history length that triggers the deep
	// fit (default 48). A set value must be at least
	// predictor.MinFitLength, the shortest history every candidate of the
	// pool fits on.
	DeepFitAfter int
	// Shards is the number of persistent shard workers (0 = GOMAXPROCS,
	// the size of the shared pool; clamped to the rack count). Step
	// results are bit-identical for every shard count.
	Shards int
	// Traces selects and tunes the trace-generator family (traces.New)
	// that TraceGen hands the callers' reporters: Diurnal (default), Lite
	// or Surge, plus the surge regime parameters. Traces.Seed
	// inherits Seed when zero. The runtime draws from none of its streams;
	// it carries the options so a snapshot names the streams a restarted
	// caller reopens.
	Traces traces.Options
}

// Validate reports whether the options are usable. Negative values are
// errors; zero values mean "use the default".
func (o Options) Validate() error {
	if o.DeepFitAfter < 0 {
		return fmt.Errorf("runtime: DeepFitAfter must be >= 0 (0 = default), got %v", o.DeepFitAfter)
	}
	if least := predictor.MinFitLength(); o.DeepFitAfter != 0 && o.DeepFitAfter < least {
		return fmt.Errorf("runtime: DeepFitAfter %d is shorter than %d, the shortest history every deep-pool candidate fits on (0 = default)",
			o.DeepFitAfter, least)
	}
	if o.Shards < 0 {
		return fmt.Errorf("runtime: Shards must be >= 0 (0 = default), got %v", o.Shards)
	}
	return o.Traces.Validate()
}

// WithDefaults returns the options with zero fields replaced by their
// defaults (thresholds 0.9, Holt-style flow-rate mapping).
func (o Options) WithDefaults() Options {
	if o.Thresholds == (alert.Thresholds{}) {
		o.Thresholds = alert.DefaultThresholds()
	}
	if o.FlowRate == nil {
		o.FlowRate = func(trf float64) float64 { return 0.05 + 0.4*trf }
	}
	if o.DeepFitAfter == 0 {
		o.DeepFitAfter = 48
	}
	if o.Shards == 0 {
		o.Shards = stdruntime.GOMAXPROCS(0)
	}
	// The trace seed defaults to the runtime seed.
	if o.Traces.Seed == 0 {
		o.Traces.Seed = o.Seed
	}
	o.Traces = o.Traces.WithDefaults()
	return o
}

// PhaseTimings holds one step's wall-clock phase durations. Timings are
// measurement artifacts: they vary run to run and are excluded from any
// determinism comparison of StepStats.
type PhaseTimings struct {
	Predict    time.Duration // phase 1: observe + forecast + pre-alerts
	Flows      time.Duration // phase 2: traffic-plane reconciliation
	Congestion time.Duration // phase 3: hot switches, reroutes, ToR monitors
	Manage     time.Duration // phase 4: cost refresh + shim management
}

// StepStats summarizes one runtime step.
type StepStats struct {
	Step          int
	ServerAlerts  int
	ToRAlerts     int
	SwitchAlerts  int
	Migrations    int
	MigrationCost float64
	// Preemptions and Requeued are always 0: a shim never evicts or parks a
	// VM. They stay because the bench harness (bench/pipeline.go) still
	// reads them.
	Preemptions    int
	Requeued       int
	Reroutes       int
	HotSwitches    int
	WorkloadStdDev float64
	MaxUplinkUtil  float64
	DeepWarnings   int // racks whose deep pool predicted stress above threshold
	Timings        PhaseTimings
}

// Runtime is the assembled system.
type Runtime struct {
	Cluster *dcn.Cluster
	Model   *cost.Model
	Flows   *flow.Network

	opts  Options
	mig   migrate.Params   // the shims' parameters: the defaults, with opts.Recorder
	gen   traces.Generator // trace family (opts.Traces), built once for TraceGen
	shims []*migrate.Shim  // indexed by rack; nil until first alert
	ws    migrate.Workspace
	step  int

	sh *shardState // the step engine's VM, monitor and scratch arrays

	// Deep forecasting pools (DeepPredict): per-rack aggregate stress
	// history and, once fitted, the dynamic-selection pool over it.
	deepHist []*timeseries.Series
	deep     []*predictor.Selector
	// The buffers Snapshot appends the deep columns to before packing.
	deepShape []int
	deepState []float64

	phaseSummaries [4]metrics.Summary // per-phase duration stats, seconds
	skewSummaries  [3]metrics.Summary // shard-round load skew
}

// PhaseSummaries returns streaming duration statistics (in seconds) for
// the four phases of a step, aggregated over every step so far, keyed
// "predict", "flows", "congestion", "manage", and the shard-round load
// skew of the fanned-out phases ("predict_skew", "flows_skew",
// "congestion_skew": max shard time over mean shard time per round,
// 1.0 = perfectly balanced).
func (r *Runtime) PhaseSummaries() map[string]*metrics.Summary {
	return map[string]*metrics.Summary{
		"predict":         &r.phaseSummaries[0],
		"flows":           &r.phaseSummaries[1],
		"congestion":      &r.phaseSummaries[2],
		"manage":          &r.phaseSummaries[3],
		"predict_skew":    &r.skewSummaries[0],
		"flows_skew":      &r.skewSummaries[1],
		"congestion_skew": &r.skewSummaries[2],
	}
}

// New assembles a runtime over an already populated cluster.
func New(cluster *dcn.Cluster, model *cost.Model, opts Options) (*Runtime, error) {
	return build(cluster, model, opts, nil)
}

// build is New with the engine's VM order given: admission maps a VM ID
// to the rack it was admitted on, and a VM it does not list is admitted
// where it lives now (New: all of them; Restore lists every VM). It
// validates the options and fills in their defaults, opens the trace
// generator, and builds an empty traffic plane, the deep-pool arrays and
// the step engine (newShardState). Shims are built lazily on a rack's
// first alert (their neighbor scans are O(racks) each — eager
// construction would be quadratic on a 5,000-rack leaf-spine).
func build(cluster *dcn.Cluster, model *cost.Model, opts Options, admission map[int]int) (*Runtime, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	gen, err := traces.New(opts.Traces)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	sh, err := newShardState(cluster, admission, opts.Shards, opts.DeepPredict)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		Cluster: cluster,
		Model:   model,
		Flows:   flow.NewNetwork(cluster.Graph),
		opts:    opts,
		mig:     migrate.Params{Recorder: opts.Recorder}.WithDefaults(),
		gen:     gen,
		shims:   make([]*migrate.Shim, len(cluster.Racks)),
		sh:      sh,
	}
	if opts.DeepPredict {
		r.deepHist = make([]*timeseries.Series, len(cluster.Racks))
		r.deep = make([]*predictor.Selector, len(cluster.Racks))
		for i := range r.deepHist {
			r.deepHist[i] = timeseries.New(nil)
		}
	}
	sh.predictFn = r.predictShard
	sh.flowsFn = r.flowShard
	sh.monitorFn = r.monitorShard
	sh.manageFn = r.manageShard
	r.buildEdges(nil)
	return r, nil
}

// TraceGen returns the generator Options.Traces selects: what a caller
// opens its VMs' reporters from (traces.NewReporters), and what labels the
// runtime's predictions against ground truth (traces.RegimeReporter).
func (r *Runtime) TraceGen() traces.Generator { return r.gen }

// Close releases the engine's persistent shard workers. Safe to call more
// than once.
func (r *Runtime) Close() { r.sh.workers.Close() }

// ExternalUpdate is one VM's measured workload profile for the current
// collection period, as its reporter delivered it.
type ExternalUpdate = traces.Update

// StepExternal advances one collection period T from the profiles the VMs
// reported: VMs present in updates take their measured profile, VMs
// absent this period repeat their last observed profile (the shim's
// collect loop treats silence as "unchanged"). The whole batch is checked
// before any of it is written: an unknown VM ID or a profile with a NaN or
// ±Inf component is an error, and then the runtime is left as it was and
// the period does not advance. A VM listed twice takes its last profile.
// Prediction and monitoring fan out over the engine's shard workers.
// Management runs the shims in rack order on the caller, every shim's
// round in the one migrate.Workspace the runtime keeps, while the other
// shard workers sweep the cost rows the shims will read.
//
// The stats are returned by value. Once every rack's shim exists and the
// engine, flow and workspace memory has grown to the fabric's high-water
// mark, a period allocates nothing.
func (r *Runtime) StepExternal(updates []ExternalUpdate) (StepStats, error) {
	sh := r.sh
	for k := range updates {
		u := &updates[k]
		if uint(u.VM) >= uint(len(sh.vmIndex)) || sh.vmIndex[u.VM] < 0 {
			return StepStats{}, fmt.Errorf("runtime: external update for unknown VM %d", u.VM)
		}
		if !u.Profile.Finite() {
			return StepStats{}, fmt.Errorf("runtime: external update for VM %d has a non-finite profile %+v", u.VM, u.Profile)
		}
	}
	for k := range updates {
		u := &updates[k]
		sh.cur[sh.vmIndex[u.VM]] = u.Profile
	}
	return r.advanceSharded()
}

// CheckInvariants verifies what must hold between two steps: the cluster's
// placement state (dcn.Cluster.CheckInvariants), the traffic plane's
// bookkeeping (flow.Network.CheckInvariants), and that every dependency
// pair's flow handle is a live flow of the network. The
// error names the violated invariant. It costs a walk of every host, VM,
// flow, pair and link: for tests and `sheriffd -check`, not for the period
// loop of a production run.
func (r *Runtime) CheckInvariants() error {
	if err := r.Cluster.CheckInvariants(); err != nil {
		return err
	}
	if err := r.Flows.CheckInvariants(); err != nil {
		return err
	}
	for _, e := range r.sh.edges {
		if e.f != nil && r.Flows.Flow(e.f.ID) != e.f {
			return fmt.Errorf("runtime: pair (%d,%d) holds a handle to flow %d that is not that live flow", e.a, e.b, e.f.ID)
		}
	}
	return nil
}

// DeepReady reports whether the rack's deep forecasting pool has been
// fitted — after a Restore this is true immediately, without refitting.
func (r *Runtime) DeepReady(rack int) bool {
	return r.deep != nil && rack >= 0 && rack < len(r.deep) && r.deep[rack] != nil
}

// uplinkUtilization returns the maximum utilization over the rack's ToR
// uplinks — the quantity the shim's queue monitor watches — as the traffic
// plane caches it (flow.Network.OutUtilization).
func (r *Runtime) uplinkUtilization(rack *dcn.Rack) float64 {
	return r.Flows.OutUtilization(rack.NodeID)
}
