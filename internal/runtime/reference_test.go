package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/pool"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// This file preserves the seed step engine — one data-parallel fan-out
// over a flat []*vmState with per-step fold allocations — for the tests
// alone: the product no longer compiles it. It is the ground truth the
// sharded SoA engine is proven bit-exact against (see equiv_test.go), the
// same convention as kmedian/reference_test.go and
// topology/reference_test.go. The phase bodies are the seed's, verbatim,
// but for the receiver — from the Runtime that once carried both engines
// to refRuntime below — and for the seed's own trace streams, which are
// gone: both engines take every period's profiles through StepExternal.

// vmState is one VM's monitoring stack in the reference engine: its
// per-component profile predictor over the profiles reported to it.
// alert/fired are per-step scratch written only by the worker that owns
// the state during phase 1.
type vmState struct {
	vm      *dcn.VM
	rack    int
	pred    *profilePredictor
	current traces.Profile
	alert   alert.Alert
	fired   bool
}

// refState is the reference engine's private state.
type refState struct {
	vms      []*vmState   // all vm states, ascending VM ID (phase-1 work items)
	byRack   [][]*vmState // the same states grouped by rack index
	queueMon []*queueMonitor
	workers  *pool.Pool
}

// refRuntime is the seed engine's Runtime: the engine-independent part
// (newRuntime, without initSharded) stepped and snapshotted by the code in
// this file. It shadows every Runtime method that reaches the step engine.
type refRuntime struct {
	*Runtime
	ref        *refState
	flowByPair map[[2]int]int // dependency pair -> flow ID
}

// newReference is New for the seed engine.
func newReference(cluster *dcn.Cluster, model *cost.Model, opts Options) (*refRuntime, error) {
	base, err := newRuntime(cluster, model, opts)
	if err != nil {
		return nil, err
	}
	r := &refRuntime{Runtime: base, flowByPair: make(map[[2]int]int)}
	if err := r.initReference(); err != nil {
		return nil, err
	}
	return r, nil
}

// engine is what a test drives when it runs the same scenario on both: the
// product's *Runtime or the seed engine's *refRuntime, each fed through
// StepExternal (feed opens the same reporters for either).
type engine interface {
	StepExternal([]ExternalUpdate) (*StepStats, error)
	Snapshot() (*Snapshot, error)
	Close()
}

// runtimeOf returns the Runtime under either engine: the cluster, cost
// model, traffic plane and deep pools are its fields whoever steps it.
func runtimeOf(e engine) *Runtime {
	if ref, ok := e.(*refRuntime); ok {
		return ref.Runtime
	}
	return e.(*Runtime)
}

// Close has nothing to release: the seed engine borrows the shared pool.
func (r *refRuntime) Close() {}

// StepExternal takes updates for the VMs the engine steps — the ones it
// was built over, a VM since removed from the cluster among them, as the
// sharded engine's dense table holds them.
func (r *refRuntime) StepExternal(updates []ExternalUpdate) (*StepStats, error) {
	stepped := make(map[int]bool, len(r.ref.vms))
	for _, st := range r.ref.vms {
		stepped[st.vm.ID] = true
	}
	external := make(map[int]traces.Profile, len(updates))
	for _, u := range updates {
		if !stepped[u.VM] {
			return nil, fmt.Errorf("runtime: external update for unknown VM %d", u.VM)
		}
		external[u.VM] = u.Profile
	}
	return r.advanceRef(external)
}

// Snapshot fills the per-VM and queue rows the way the seed engine holds
// them — histories, cold-smoothed into Holt states — lists its pair map
// sorted, and leaves the rest of the document to the Runtime.
func (r *refRuntime) Snapshot() (*Snapshot, error) {
	var rows engineRows
	for _, st := range r.ref.vms {
		h := st.pred.Histories()
		rows.vms.ID = append(rows.vms.ID, st.vm.ID)
		rows.vms.Rack = append(rows.vms.Rack, st.rack)
		rows.vms.Hist = append(rows.vms.Hist, len(h[0]))
		p := st.current
		rows.cur = append(rows.cur, p.CPU, p.Mem, p.IO, p.TRF)
		for c := 0; c < 4; c++ {
			lt := foldHolt(h[c])
			rows.trend = append(rows.trend, lt[0], lt[1])
		}
	}
	for _, qm := range r.ref.queueMon {
		h := qm.History()
		lt := foldHolt(h)
		rows.qCount = append(rows.qCount, len(h))
		rows.qHolt = append(rows.qHolt, lt[0], lt[1])
	}
	for pair, id := range r.flowByPair {
		rows.pairs = append(rows.pairs, [3]int{pair[0], pair[1], id})
	}
	slices.SortFunc(rows.pairs, func(a, b [3]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return r.snapshotDoc(rows)
}

// foldHolt cold-smooths a full history into its Holt state — how the
// reference engine (which keeps histories, not states) emits its
// snapshots. Bit-exact with the sharded engine's incremental fold.
func foldHolt(h []float64) [2]float64 {
	if len(h) == 0 {
		return [2]float64{}
	}
	level, trend := h[0], 0.0
	for t := 1; t < len(h); t++ {
		level, trend = holtCoeff.fold(level, trend, h[t])
	}
	return [2]float64{level, trend}
}

// ForecastFrom implements componentForecaster.
func (e ewmaTrend) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	if h.Len() == 0 {
		return nil, errors.New("runtime: empty history")
	}
	level := h.At(0)
	trend := 0.0
	for t := 1; t < h.Len(); t++ {
		level, trend = e.fold(level, trend, h.At(t))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = level + trend*float64(i+1)
	}
	return append(dst, out...), nil
}

// trendState is ewmaTrend with suffix-aware incremental state: the level
// and trend fully determine both the forecast and the continuation of the
// recursion, so a bound history that only grows (the per-step collection
// pattern) costs O(new points) per forecast instead of a full O(n)
// re-smoothing. The continuation is bit-exact with ewmaTrend's cold pass.
// Each trendState must be bound to exactly one append-only history; it is
// not safe for concurrent use (each VM component and queue monitor owns
// its own instance).
type trendState struct {
	ewmaTrend
	n            int     // observations folded into level/trend
	last         float64 // history.At(n-1), to detect non-append mutation
	level, trend float64
}

// ForecastFrom implements componentForecaster incrementally.
func (ts *trendState) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	if h.Len() == 0 {
		return nil, errors.New("runtime: empty history")
	}
	start := ts.n
	if start < 1 || start > h.Len() || h.At(start-1) != ts.last {
		ts.level, ts.trend = h.At(0), 0
		start = 1
	}
	for t := start; t < h.Len(); t++ {
		ts.level, ts.trend = ts.fold(ts.level, ts.trend, h.At(t))
	}
	ts.n = h.Len()
	ts.last = h.At(h.Len() - 1)
	out := make([]float64, n)
	for i := range out {
		out[i] = ts.level + ts.trend*float64(i+1)
	}
	return append(dst, out...), nil
}

// initReference assembles the seed engine: eager per-rack shims and queue
// monitors, one vmState per VM.
func (r *refRuntime) initReference() error {
	ref := &refState{
		byRack:  make([][]*vmState, len(r.Cluster.Racks)),
		workers: pool.Shared(),
	}
	for _, rack := range r.Cluster.Racks {
		shim, err := migrate.NewShim(r.Cluster, r.Model, rack, r.opts.Migrate)
		if err != nil {
			return err
		}
		r.shims = append(r.shims, shim)
		qm, err := newQueueMonitor(&trendState{ewmaTrend: holtCoeff}, queueLimit, queueThreshold)
		if err != nil {
			return err
		}
		ref.queueMon = append(ref.queueMon, qm)
	}
	vms := r.Cluster.VMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	comp := func() componentForecaster {
		return &trendState{ewmaTrend: holtCoeff}
	}
	for _, vm := range vms {
		idx := vm.Host().Rack().Index
		st := &vmState{
			vm:   vm,
			rack: idx,
			pred: newProfilePredictor(comp(), comp(), comp(), comp()),
		}
		ref.vms = append(ref.vms, st)
		ref.byRack[idx] = append(ref.byRack[idx], st)
	}
	r.ref = ref
	return nil
}

// advanceRef is the seed step body. The reported profiles come keyed by
// VM ID; a VM with none keeps its last. The map is read-only under the
// parallel phase.
func (r *refRuntime) advanceRef(external map[int]traces.Profile) (*StepStats, error) {
	ref := r.ref
	stats := &StepStats{Step: r.step}
	r.step++
	rec := r.opts.Recorder
	rec.SetStep(stats.Step)

	// Phase 1 (parallel): observe, predict, raise alerts per VM. Each
	// worker touches only the claimed vmState (its predictor and VM are
	// owned by that state), so no locking is needed; results
	// are folded in deterministic VM order afterwards.
	phaseStart := time.Now()
	ref.workers.ForEach(len(ref.vms), func(i int) {
		st := ref.vms[i]
		st.fired = false
		if p, ok := external[st.vm.ID]; ok {
			st.current = p
		}
		st.pred.Observe(st.current)
		if st.pred.HistoryLen() < 3 {
			return // not enough history to extrapolate
		}
		a, fired, err := st.pred.Check(r.opts.Thresholds)
		if err != nil || !fired {
			return
		}
		a.VMID = st.vm.ID
		if h := st.vm.Host(); h != nil {
			a.HostID = h.ID
		}
		a.RackIndex = st.rack
		st.vm.Alert = a.Value
		st.alert = a
		st.fired = true
	})
	alertsByRack := make([][]alert.Alert, len(ref.byRack))
	for _, st := range ref.vms {
		if st.fired {
			alertsByRack[st.rack] = append(alertsByRack[st.rack], st.alert)
			stats.ServerAlerts++
		}
	}
	if r.opts.DeepPredict {
		r.deepStepRef(stats, rec)
	}
	stats.Timings.Predict = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "predict",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Predict.Seconds()})

	// Phase 2: rebuild the traffic plane from the dependency graph.
	phaseStart = time.Now()
	r.syncFlowsRef()
	stats.Timings.Flows = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "flows",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Flows.Seconds()})

	// Phase 3: switch-side congestion. Hot outer switches trigger
	// FLOWREROUTE; ToR uplink monitors raise FromLocalToR alerts.
	phaseStart = time.Now()
	hot := r.Flows.HotSwitches(hotThreshold)
	stats.HotSwitches = len(hot)
	for _, sw := range hot {
		stats.SwitchAlerts++
		if r.opts.DisableReroute {
			continue
		}
		moved := r.Flows.RerouteAroundHot(sw, hotThreshold)
		stats.Reroutes += len(moved)
	}
	for idx, rack := range r.Cluster.Racks {
		util := r.uplinkUtilization(rack)
		if util > stats.MaxUplinkUtil {
			stats.MaxUplinkUtil = util
		}
		ref.queueMon[idx].Observe(util)
		if a, fired, err := ref.queueMon[idx].Check(); err == nil && fired {
			a.RackIndex = idx
			alertsByRack[idx] = append(alertsByRack[idx], a)
			stats.ToRAlerts++
		}
	}
	stats.Timings.Congestion = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "congestion",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Congestion.Seconds()})
	if rec.Enabled() {
		for idx := range alertsByRack {
			if n := len(alertsByRack[idx]); n > 0 {
				rec.Record(obs.Event{Kind: obs.KindAlerts, Phase: "manage",
					Shim: idx, VM: -1, Host: -1, Value: float64(n)})
			}
		}
	}

	// Phase 4 (serialized): management. The cost model's shortest-path
	// tables are refreshed lazily: only a step that actually manages
	// alerts pays for the |racks| Dijkstra sweeps, and a refresh is
	// carried over (modelStale) so the tables reflect the latest traffic
	// plane when the next alert arrives.
	phaseStart = time.Now()
	r.modelStale = true
	for idx, shim := range r.shims {
		// A rack participates when it has fresh alerts.
		if len(alertsByRack[idx]) == 0 {
			continue
		}
		if r.modelStale {
			r.Flows.UpdateGraphBandwidth()
			r.Model.Refresh()
			r.modelStale = false
		}
		shimStart := time.Now()
		rep, err := shim.ProcessAlerts(alertsByRack[idx])
		if err != nil {
			return nil, fmt.Errorf("runtime: shim %d: %w", idx, err)
		}
		rec.Record(obs.Event{Kind: obs.KindManage, Phase: "manage",
			Shim: idx, VM: -1, Host: -1, Value: time.Since(shimStart).Seconds()})
		stats.Migrations += len(rep.Migrations)
		stats.MigrationCost += rep.TotalCost
		stats.Preemptions += rep.Preemptions
		stats.Requeued += rep.Requeued
	}
	stats.Timings.Manage = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "manage",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Manage.Seconds()})

	stats.WorkloadStdDev = r.Cluster.WorkloadStdDev()
	for i, d := range []time.Duration{stats.Timings.Predict, stats.Timings.Flows, stats.Timings.Congestion, stats.Timings.Manage} {
		r.phaseSummaries[i].Observe(d.Seconds())
	}
	return stats, nil
}

// deepStepRef advances the per-rack deep forecasting pools: each rack's
// aggregate stress (mean of its VMs' current profile maxima) either
// extends the pre-fit history, triggers the one-time pool fit, or feeds
// the fitted selector, whose next-period prediction is recorded and
// counted as a deep warning when it crosses the hot threshold. Fits and
// predictions are deterministic (seeded NARNETs, fixed pool order), so
// deep state snapshots and restores bit-exactly.
func (r *refRuntime) deepStepRef(stats *StepStats, rec *obs.Recorder) {
	for idx := range r.ref.byRack {
		if len(r.ref.byRack[idx]) == 0 {
			continue
		}
		agg := 0.0
		for _, st := range r.ref.byRack[idx] {
			agg += st.current.Max()
		}
		agg /= float64(len(r.ref.byRack[idx]))

		sel := r.deep[idx]
		if sel == nil {
			h := r.deepHist[idx]
			h.Append(agg)
			if h.Len() < r.opts.DeepFitAfter {
				continue
			}
			fitted, err := predictor.New(h, predictor.Options{Seed: r.opts.Seed + int64(idx)})
			if err != nil {
				// Not enough signal yet (e.g. constant history); keep
				// collecting and retry next step.
				continue
			}
			r.deep[idx] = fitted
			r.deepHist[idx] = timeseries.New(nil) // history lives in the selector now
			sel = fitted
		} else {
			sel.Observe(agg)
		}
		p, err := sel.Predict()
		if err != nil {
			continue
		}
		rec.Record(obs.Event{Kind: obs.KindForecast, Phase: "predict",
			Shim: idx, VM: -1, Host: -1, Value: p})
		if p > hotThreshold {
			stats.DeepWarnings++
		}
	}
}

// syncFlowsRef reconciles the flow set with the VM dependency graph: one
// flow per dependent pair hosted in different racks, with rate driven by
// the pair's current traffic component. Existing flows keep their routes
// (so reroutes survive across steps); only rate changes are applied in
// place, and flows whose endpoints migrated are re-created.
func (r *refRuntime) syncFlowsRef() {
	type want struct {
		src, dst int
		rate     float64
		ds       bool
	}
	desired := make(map[[2]int]want)
	for idx := range r.ref.byRack {
		for _, st := range r.ref.byRack[idx] {
			for _, peerID := range r.Cluster.Deps.Peers(st.vm.ID) {
				peer := r.Cluster.VM(peerID)
				if peer == nil || peer.Host() == nil || st.vm.Host() == nil {
					continue
				}
				a, b := st.vm.ID, peerID
				if a > b {
					a, b = b, a
				}
				key := [2]int{a, b}
				if _, ok := desired[key]; ok {
					continue
				}
				srcNode := st.vm.Host().Rack().NodeID
				dstNode := peer.Host().Rack().NodeID
				if srcNode == dstNode {
					continue // intra-rack traffic never crosses the fabric
				}
				desired[key] = want{
					src:  srcNode,
					dst:  dstNode,
					rate: r.opts.FlowRate(st.current.TRF),
					// Dependencies with delay-sensitive endpoints produce
					// delay-sensitive flows (PRIORITY must not move them).
					ds: st.vm.DelaySensitive || peer.DelaySensitive,
				}
			}
		}
	}
	// Reconcile in deterministic key order: drop stale flows, re-route
	// moved ones, update rates (map iteration order would perturb the
	// floating-point load sums).
	existing := make([][2]int, 0, len(r.flowByPair))
	for key := range r.flowByPair {
		existing = append(existing, key)
	}
	sort.Slice(existing, func(i, j int) bool {
		if existing[i][0] != existing[j][0] {
			return existing[i][0] < existing[j][0]
		}
		return existing[i][1] < existing[j][1]
	})
	for _, key := range existing {
		id := r.flowByPair[key]
		f := r.Flows.Flow(id)
		w, ok := desired[key]
		if f == nil || !ok || f.Src != w.src || f.Dst != w.dst {
			if f != nil {
				r.Flows.RemoveFlow(id)
			}
			delete(r.flowByPair, key)
			continue
		}
		if f.Rate != w.rate {
			// Rate update failure is impossible for positive rates on a
			// live flow; ignore the error to keep the loop total.
			_ = r.Flows.SetRate(f, w.rate)
		}
		delete(desired, key) // handled
	}
	// Admit new pairs in deterministic order.
	keys := make([][2]int, 0, len(desired))
	for key := range desired {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		w := desired[key]
		f, err := r.Flows.AddFlow(w.src, w.dst, w.rate, w.ds)
		if err != nil {
			continue // unroutable pairs are skipped, not fatal
		}
		r.flowByPair[key] = f.ID
	}
}
