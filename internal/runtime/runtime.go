// Package runtime drives the full Sheriff loop end to end in simulated
// time: every period T each shim collects its VMs' measured workload
// profiles, forecasts the next period, raises pre-alerts, and manages its
// region — VM migration for server/ToR alerts, flow rerouting for hot
// outer switches (Sec. II–V assembled).
//
// There is one step engine, the sharded SoA engine (sharded.go): VM state
// in flat arrays partitioned into contiguous rack-range shards owned by
// persistent workers, sized for 5,000-rack / million-VM fabrics. The seed
// engine it replaced — per-VM heap states fanned out over the shared pool
// — is compiled by the tests only (reference_test.go), as the ground truth
// the sharded engine is proven bit-exact against.
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
	Migrate    migrate.Params
	// FlowRate maps a dependent VM pair's mean TRF to a flow rate in
	// link-capacity units (default 0.05 + 0.4·TRF).
	FlowRate func(trf float64) float64
	// DisableReroute turns FLOWREROUTE off (hot switches stay hot) — the
	// ablation baseline.
	DisableReroute bool
	// Recorder, when non-nil, receives per-step phase timings, per-rack
	// alert counts, and per-shim manage timings, and is threaded into
	// every shim (unless Migrate.Recorder is already set) so migration
	// protocol events carry the current step number.
	Recorder *obs.Recorder
	// DeepPredict enables the per-rack deep forecasting pool: once a
	// rack has DeepFitAfter observations of aggregate stress, a dynamic
	// model-selection pool (2 ARIMA + 2 NARNET) is fitted over it and
	// supplies next-period early warnings alongside the cheap per-VM
	// triage. Fitted pools are carried by Snapshot so a restart resumes
	// without refitting.
	DeepPredict bool
	// DeepFitAfter is the rack-history length that triggers the deep
	// fit (default 48, minimum large enough for the NARNET delay lines).
	DeepFitAfter int
	// Shards is the number of persistent shard workers (0 = GOMAXPROCS,
	// the size of the shared pool; clamped to the rack count). Step
	// results are bit-identical for every shard count.
	Shards int
	// HistoryLimit bounds the in-memory per-step stats kept by History():
	// at most the last HistoryLimit steps are retained in a ring. 0 keeps
	// every step (the seed behavior); streaming consumers should set a
	// small limit and drain the Recorder instead.
	HistoryLimit int
	// Traces selects and tunes the trace-generator family feeding the
	// synthetic engines (traces.New): Diurnal (default), Lite, Surge, or
	// SurgeLite, plus the surge regime parameters. Traces.Seed inherits
	// Seed when zero, so the default configuration stays bit-exact with
	// the pre-Options engines.
	Traces traces.Options
}

// Validate reports whether the options are usable. Negative values are
// errors; zero values mean "use the default".
func (o Options) Validate() error {
	if o.DeepFitAfter < 0 {
		return fmt.Errorf("runtime: DeepFitAfter must be >= 0 (0 = default), got %v", o.DeepFitAfter)
	}
	if o.Shards < 0 {
		return fmt.Errorf("runtime: Shards must be >= 0 (0 = default), got %v", o.Shards)
	}
	if o.HistoryLimit < 0 {
		return fmt.Errorf("runtime: HistoryLimit must be >= 0 (0 = unbounded), got %v", o.HistoryLimit)
	}
	if err := o.Traces.Validate(); err != nil {
		return err
	}
	return o.Migrate.Validate()
}

// WithDefaults returns the options with zero fields replaced by their
// defaults (thresholds 0.9, Holt-style flow-rate mapping),
// with the recorder threaded into the migrate params unless one is
// already set there.
func (o Options) WithDefaults() Options {
	if o.Thresholds == (alert.Thresholds{}) {
		o.Thresholds = alert.DefaultThresholds()
	}
	o.Migrate = o.Migrate.WithDefaults()
	if o.Migrate.Recorder == nil {
		o.Migrate.Recorder = o.Recorder
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
	// The trace seed defaults to the runtime seed so pre-Options
	// configurations replay bit-exactly.
	if o.Traces.Seed == 0 {
		o.Traces.Seed = o.Seed
	}
	o.Traces = o.Traces.WithDefaults()
	return o
}

// ewmaTrend is the cheap per-step forecaster's coefficients: exponentially
// weighted level plus trend (Holt's linear method), adequate for pre-alerts
// where fitting a full ARIMA per VM per tick would be wasteful.
type ewmaTrend struct {
	alpha, beta float64
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

	opts       Options
	gen        traces.Generator // trace family (opts.Traces), built once
	shims      []*migrate.Shim  // indexed by rack; nil until first alert
	step       int
	history    []StepStats
	histStart  int  // ring head once history is full (HistoryLimit > 0)
	modelStale bool // link bandwidth changed since the last Model.Refresh

	sh *shardState // the step engine's VM, monitor and scratch arrays

	// Deep forecasting pools (DeepPredict): per-rack aggregate stress
	// history and, once fitted, the dynamic-selection pool over it.
	deepHist []*timeseries.Series
	deep     []*predictor.Selector

	phaseSummaries [4]metrics.Summary // per-phase duration stats, seconds
	skewSummaries  [3]metrics.Summary // shard-round load skew
}

// PhaseSummaries returns streaming duration statistics (in seconds) for
// the four Step phases, aggregated over every step so far, keyed
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
// where it lives now (New: all of them; Restore lists every VM).
func build(cluster *dcn.Cluster, model *cost.Model, opts Options, admission map[int]int) (*Runtime, error) {
	r, err := newRuntime(cluster, model, opts)
	if err != nil {
		return nil, err
	}
	if err := r.initSharded(admission); err != nil {
		return nil, err
	}
	return r, nil
}

// newRuntime is everything of a Runtime that does not depend on how VMs
// are stepped: validated options with defaults, the trace generator, an
// empty traffic plane and the deep-pool arrays. initSharded adds the step
// engine; the tests' seed engine (reference_test.go) adds its own.
func newRuntime(cluster *dcn.Cluster, model *cost.Model, opts Options) (*Runtime, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults()
	gen, err := traces.New(opts.Traces)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	r := &Runtime{
		Cluster: cluster,
		Model:   model,
		Flows:   flow.NewNetwork(cluster.Graph),
		opts:    opts,
		gen:     gen,
	}
	if opts.DeepPredict {
		r.deepHist = make([]*timeseries.Series, len(cluster.Racks))
		r.deep = make([]*predictor.Selector, len(cluster.Racks))
		for i := range r.deepHist {
			r.deepHist[i] = timeseries.New(nil)
		}
	}
	return r, nil
}

// TraceGen returns the trace generator the synthetic engines draw from —
// the same streams an external reporter should replay when labeling the
// runtime's predictions against ground truth.
func (r *Runtime) TraceGen() traces.Generator { return r.gen }

// Close releases the engine's persistent shard workers. Safe to call more
// than once.
func (r *Runtime) Close() { r.sh.workers.Close() }

// History returns the per-step statistics retained so far, oldest first.
// With HistoryLimit set this is at most the last HistoryLimit steps.
func (r *Runtime) History() []StepStats {
	if r.histStart == 0 {
		return r.history
	}
	out := make([]StepStats, len(r.history))
	n := copy(out, r.history[r.histStart:])
	copy(out[n:], r.history[:r.histStart])
	return out
}

// recordHistory appends one step's stats, evicting the oldest entry once
// the configured limit is reached.
func (r *Runtime) recordHistory(s StepStats) {
	lim := r.opts.HistoryLimit
	if lim <= 0 || len(r.history) < lim {
		r.history = append(r.history, s)
		return
	}
	r.history[r.histStart] = s
	r.histStart = (r.histStart + 1) % lim
}

// Step advances one collection period T. Prediction and monitoring fan
// out over the engine's shard workers; management is serialized.
func (r *Runtime) Step() (*StepStats, error) {
	return r.advanceSharded(false)
}

// ExternalUpdate is one VM's measured workload profile for the current
// collection period, delivered by an external ingest plane instead of the
// built-in synthetic generators.
type ExternalUpdate struct {
	VM      int
	Profile traces.Profile
}

// StepExternal advances one collection period using externally supplied
// profiles: VMs present in updates take their measured profile, VMs
// absent this period repeat their last observed profile (the shim's
// collect loop treats silence as "unchanged"). An unknown VM ID or a
// profile with a NaN or ±Inf component is an error, and the period does
// not advance. The synthetic generators do not advance, so a daemon fed
// real measurements never consumes generator state.
func (r *Runtime) StepExternal(updates []ExternalUpdate) (*StepStats, error) {
	// Profiles are stamped into a persistent overlay keyed by dense VM
	// index; bumping the epoch invalidates the previous step's stamps, so a
	// steady ingest loop allocates nothing.
	sh := r.sh
	sh.extEpoch++
	for _, u := range updates {
		i := int32(-1)
		if uint(u.VM) < uint(len(sh.vmIndex)) {
			i = sh.vmIndex[u.VM]
		}
		if i < 0 {
			return nil, fmt.Errorf("runtime: external update for unknown VM %d", u.VM)
		}
		if !u.Profile.Finite() {
			return nil, fmt.Errorf("runtime: external update for VM %d has a non-finite profile %+v", u.VM, u.Profile)
		}
		sh.extProf[i] = u.Profile
		sh.extMark[i] = sh.extEpoch
	}
	return r.advanceSharded(true)
}

// CheckInvariants verifies what must hold between two steps: the cluster's
// placement state (dcn.Cluster.CheckInvariants) and the traffic plane's
// bookkeeping (flow.Network.CheckInvariants). The error names the violated
// invariant. It costs a walk of every host, VM, flow and link: for tests and
// `sheriffd -check`, not for the period loop of a production run.
func (r *Runtime) CheckInvariants() error {
	if err := r.Cluster.CheckInvariants(); err != nil {
		return err
	}
	return r.Flows.CheckInvariants()
}

// DeepReady reports whether the rack's deep forecasting pool has been
// fitted — after a Restore this is true immediately, without refitting.
func (r *Runtime) DeepReady(rack int) bool {
	return r.deep != nil && rack >= 0 && rack < len(r.deep) && r.deep[rack] != nil
}

// Run advances n steps and returns the retained statistics.
func (r *Runtime) Run(n int) ([]StepStats, error) {
	for i := 0; i < n; i++ {
		if _, err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.History(), nil
}

// uplinkUtilization returns the maximum utilization over the rack's ToR
// uplinks — the quantity the shim's queue monitor watches — as the traffic
// plane caches it (flow.Network.OutUtilization).
func (r *Runtime) uplinkUtilization(rack *dcn.Rack) float64 {
	return r.Flows.OutUtilization(rack.NodeID)
}
