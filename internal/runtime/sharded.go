// The step engine.
//
// VM state lives in flat struct-of-arrays slices ordered rack-major
// (ascending rack index, ascending VM ID within a rack), partitioned into
// contiguous rack ranges owned by persistent shard workers (pool.Shards).
// Each phase is one batched round: the coordinator wakes every shard, the
// shards work only on the ranges they own, and the coordinator folds the
// per-shard results in shard order — which, because shards are contiguous
// in the global rack-major order, reproduces the global fold of the seed
// engine (reference_test.go, compiled by the tests only) exactly. Per-VM predictor state is the Holt
// (level, trend) pair per component — bit-exact with re-smoothing the full
// history (see TestTrendStateMatchesEwmaTrend) at 1/500th the memory.
package runtime

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/dcn"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/pool"
	"sheriff/internal/predictor"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// The congestion levels, in units of full link utilization: a switch at or
// above hotThreshold is hot (FLOWREROUTE moves flows off it, and a deep
// forecast above it is a warning), and a rack's ToR alerts when its
// forecast uplink occupancy of queueLimit passes queueThreshold.
const (
	hotThreshold   = 0.9
	queueLimit     = 1.0
	queueThreshold = 0.9
)

// holtCoeff carries the Holt smoothing coefficients shared by every
// predictor in the system. The tests' seed engine routes its recursion
// through the same fold method, so the arithmetic is expression-identical.
var holtCoeff = ewmaTrend{alpha: 0.5, beta: 0.3}

// fold advances one Holt (level, trend) state by one observation with
// e's coefficients.
func (e ewmaTrend) fold(level, trend, x float64) (float64, float64) {
	return smoothing.HoltStep(level, trend, x, e.alpha, e.beta)
}

// holtState is one component's incremental Holt smoothing state.
type holtState struct{ level, trend float64 }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// flowWant is one shard's vote for a dependency flow, emitted in the
// shard's deterministic iteration order and merged first-encounter-wins by
// the coordinator.
type flowWant struct {
	key      [2]int
	src, dst int
	rate     float64
	ds       bool
}

// shardState is the sharded engine's private state.
type shardState struct {
	workers *pool.Shards
	n       int // shard count

	// Shard partition: shard s owns racks [rackLo[s], rackHi[s]) and the
	// dense VM range [vmLo[s], vmHi[s]).
	rackLo, rackHi []int
	vmLo, vmHi     []int

	// Per-VM SoA state, rack-major then ascending VM ID. Each entry is
	// written only by its owning shard during a phase round.
	vms       []*dcn.VM
	rack      []int32
	cur       []traces.Profile
	pred      [][4]holtState   // per-component Holt state, profile order
	nObs      []int32          // profiles folded per VM
	srcs      []traces.Source  // per-VM streams, opened on first draw (source); nil when Kind == Lite
	lite      []traces.LiteGen // Lite fast path: value slice, no per-VM heap state
	rackStart []int32          // dense VM range of each rack (len racks+1)
	byID      []int32          // the dense indices in ascending VM ID order, as Snapshot lists them

	// Per-rack monitor state and reused alert buckets.
	qHolt        []holtState
	qN           []int32
	alertsByRack [][]alert.Alert

	// Deep-forecast scratch: the owning shard stores each rack's predicted
	// value; the coordinator records and counts in rack order, then clears.
	deepVal []float64
	deepOK  []bool

	// External-profile overlay (StepExternal), epoch-stamped so a steady
	// ingest loop never rebuilds a map. vmIndex is indexed by VM ID (the
	// cluster hands IDs out sequentially) and holds -1 where no VM has it.
	vmIndex  []int32
	extProf  []traces.Profile
	extMark  []uint64
	extEpoch uint64
	external bool

	// Per-shard fold outputs for the coordinator.
	dur          []time.Duration
	serverAlerts []int
	torAlerts    []int
	maxUtil      []float64

	// Flow-sync scratch, reused across steps.
	wants    [][]flowWant
	desired  map[[2]int]flowWant
	keyBuf   [][2]int
	admitBuf [][2]int

	sourceBuf []int // manage-phase scratch: rack nodes handed to RefreshSources

	// Prebuilt phase closures (method values) so Shards.Do never allocates.
	predictFn func(int)
	flowsFn   func(int)
	monitorFn func(int)
}

// initSharded assembles the sharded engine: dense rack-major VM arrays,
// a contiguous-rack shard partition balanced by VM count, and the
// persistent worker group. Shims are built lazily on a rack's first alert
// (their neighbor scans are O(racks) each — eager construction would be
// quadratic on a 5,000-rack leaf-spine).
func (r *Runtime) initSharded(admission map[int]int) error {
	racks := len(r.Cluster.Racks)
	if racks == 0 {
		return fmt.Errorf("runtime: cluster has no racks")
	}
	vms := r.Cluster.VMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	rackOf := func(vm *dcn.VM) int {
		if rk, ok := admission[vm.ID]; ok {
			return rk
		}
		return vm.Host().Rack().Index
	}

	sh := &shardState{}
	// Dense rack-major order: count per rack, prefix-sum, then place VMs
	// in ascending-ID order within each rack's range.
	sh.rackStart = make([]int32, racks+1)
	for _, vm := range vms {
		sh.rackStart[rackOf(vm)+1]++
	}
	for i := 0; i < racks; i++ {
		sh.rackStart[i+1] += sh.rackStart[i]
	}
	n := len(vms)
	sh.vms = make([]*dcn.VM, n)
	sh.rack = make([]int32, n)
	sh.cur = make([]traces.Profile, n)
	sh.pred = make([][4]holtState, n)
	sh.nObs = make([]int32, n)
	sh.byID = make([]int32, n)
	if n > 0 {
		// A restored cluster's IDs come from a file; the table must not be
		// sized by a wild one.
		if lo, hi := vms[0].ID, vms[n-1].ID; lo < 0 || hi >= 4*n+1024 {
			return fmt.Errorf("runtime: VM ids %d..%d too sparse for %d VMs (ids index a dense table)", lo, hi, n)
		}
		sh.vmIndex = make([]int32, vms[n-1].ID+1)
		for i := range sh.vmIndex {
			sh.vmIndex[i] = -1
		}
	}
	sh.extProf = make([]traces.Profile, n)
	sh.extMark = make([]uint64, n)
	liteKind := r.gen.Kind() == traces.Lite
	if liteKind {
		sh.lite = make([]traces.LiteGen, n)
	} else {
		sh.srcs = make([]traces.Source, n)
	}
	fill := make([]int32, racks)
	copy(fill, sh.rackStart[:racks])
	for k, vm := range vms {
		rk := rackOf(vm)
		i := fill[rk]
		fill[rk]++
		sh.byID[k] = i
		sh.vms[i] = vm
		sh.rack[i] = int32(rk)
		sh.vmIndex[vm.ID] = i
		if liteKind {
			// Store the O(1)-state generator by value: a million-VM run
			// carries 3 words per VM instead of a heap object.
			sh.lite[i] = *(r.gen.Source(vm.ID, rk).(*traces.LiteGen))
		}
	}

	// Shard partition: contiguous rack ranges, balanced by VM count, every
	// shard owning at least one rack.
	ns := r.opts.Shards
	if ns > racks {
		ns = racks
	}
	sh.n = ns
	sh.rackLo = make([]int, ns)
	sh.rackHi = make([]int, ns)
	sh.vmLo = make([]int, ns)
	sh.vmHi = make([]int, ns)
	lo := 0
	for s := 0; s < ns; s++ {
		remaining := ns - s - 1
		hi := lo + 1
		target := int32(int64(n) * int64(s+1) / int64(ns))
		for hi < racks-remaining && sh.rackStart[hi] < target {
			hi++
		}
		if s == ns-1 {
			hi = racks
		}
		sh.rackLo[s], sh.rackHi[s] = lo, hi
		sh.vmLo[s], sh.vmHi[s] = int(sh.rackStart[lo]), int(sh.rackStart[hi])
		lo = hi
	}

	sh.qHolt = make([]holtState, racks)
	sh.qN = make([]int32, racks)
	sh.alertsByRack = make([][]alert.Alert, racks)
	if r.opts.DeepPredict {
		sh.deepVal = make([]float64, racks)
		sh.deepOK = make([]bool, racks)
	}
	sh.dur = make([]time.Duration, ns)
	sh.serverAlerts = make([]int, ns)
	sh.torAlerts = make([]int, ns)
	sh.maxUtil = make([]float64, ns)
	sh.wants = make([][]flowWant, ns)
	sh.desired = make(map[[2]int]flowWant)

	sh.workers = pool.NewShards(ns)
	sh.predictFn = r.predictShard
	sh.flowsFn = r.flowShard
	sh.monitorFn = r.monitorShard

	r.shims = make([]*migrate.Shim, racks)
	r.sh = sh
	return nil
}

// source returns VM i's stream, opening it on the first draw: a
// materialized stream is a normalized week of three series, and a runtime
// driven by StepExternal never draws from one. An unopened stream stands at
// position 0. predictShard opens streams inside the shard round; that is
// race-free because shard s touches only srcs[vmLo[s]:vmHi[s]] and a
// Generator hands out independent Sources over read-only shared state.
func (r *Runtime) source(i int) traces.Source {
	sh := r.sh
	if sh.srcs[i] == nil {
		sh.srcs[i] = r.gen.Source(sh.vms[i].ID, int(sh.rack[i]))
	}
	return sh.srcs[i]
}

// predictShard is phase 1 for one shard: observe (generator, or the
// external overlay), fold the Holt states, and raise server pre-alerts
// into the shard-owned per-rack buckets — ascending VM ID within each
// rack, exactly the reference fold order. Deep-pool aggregation rides in
// the same round (it reads only profiles this shard just wrote).
func (r *Runtime) predictShard(s int) {
	sh := r.sh
	start := time.Now()
	th := r.opts.Thresholds
	alerts := 0
	for i := sh.vmLo[s]; i < sh.vmHi[s]; i++ {
		var p traces.Profile
		switch {
		case sh.external:
			p = sh.cur[i]
			if sh.extMark[i] == sh.extEpoch {
				p = sh.extProf[i]
			}
		case sh.lite != nil:
			p = sh.lite[i].Next()
		default:
			p = r.source(i).Next()
		}
		sh.cur[i] = p
		hp := &sh.pred[i]
		if sh.nObs[i] == 0 {
			hp[0] = holtState{p.CPU, 0}
			hp[1] = holtState{p.Mem, 0}
			hp[2] = holtState{p.IO, 0}
			hp[3] = holtState{p.TRF, 0}
		} else {
			hp[0].level, hp[0].trend = holtCoeff.fold(hp[0].level, hp[0].trend, p.CPU)
			hp[1].level, hp[1].trend = holtCoeff.fold(hp[1].level, hp[1].trend, p.Mem)
			hp[2].level, hp[2].trend = holtCoeff.fold(hp[2].level, hp[2].trend, p.IO)
			hp[3].level, hp[3].trend = holtCoeff.fold(hp[3].level, hp[3].trend, p.TRF)
		}
		sh.nObs[i]++
		if sh.nObs[i] < 3 {
			continue // not enough history to extrapolate
		}
		f0 := clamp01(hp[0].level + hp[0].trend*1)
		f1 := clamp01(hp[1].level + hp[1].trend*1)
		f2 := clamp01(hp[2].level + hp[2].trend*1)
		f3 := clamp01(hp[3].level + hp[3].trend*1)
		if !(f0 > th.CPU || f1 > th.Mem || f2 > th.IO || f3 > th.TRF) {
			continue
		}
		v := f0
		if f1 > v {
			v = f1
		}
		if f2 > v {
			v = f2
		}
		if f3 > v {
			v = f3
		}
		vm := sh.vms[i]
		vm.Alert = v
		a := alert.Alert{Kind: alert.FromServer, Value: v, VMID: vm.ID, RackIndex: int(sh.rack[i])}
		if h := vm.Host(); h != nil {
			a.HostID = h.ID
		}
		rk := sh.rack[i]
		sh.alertsByRack[rk] = append(sh.alertsByRack[rk], a)
		alerts++
	}
	if r.opts.DeepPredict {
		r.deepShard(s)
	}
	sh.serverAlerts[s] = alerts
	sh.dur[s] = time.Since(start)
}

// deepShard advances the deep forecasting pools of the shard's racks; the
// semantics mirror the seed engine's deep step (reference_test.go) exactly
// — same aggregation order, same fit trigger, same seeds — but the obs
// events are deferred to the coordinator so the trace stays in rack order.
func (r *Runtime) deepShard(s int) {
	sh := r.sh
	for rk := sh.rackLo[s]; rk < sh.rackHi[s]; rk++ {
		lo, hi := sh.rackStart[rk], sh.rackStart[rk+1]
		if lo == hi {
			continue
		}
		agg := 0.0
		for i := lo; i < hi; i++ {
			agg += sh.cur[i].Max()
		}
		agg /= float64(hi - lo)

		sel := r.deep[rk]
		if sel == nil {
			h := r.deepHist[rk]
			h.Append(agg)
			if h.Len() < r.opts.DeepFitAfter {
				continue
			}
			fitted, err := predictor.New(h, predictor.Options{Seed: r.opts.Seed + int64(rk)})
			if err != nil {
				continue // not enough signal yet; retry next step
			}
			r.deep[rk] = fitted
			r.deepHist[rk] = timeseries.New(nil)
			sel = fitted
		} else {
			sel.Observe(agg)
		}
		p, err := sel.Predict()
		if err != nil {
			continue
		}
		sh.deepVal[rk] = p
		sh.deepOK[rk] = true
	}
}

// flowShard is phase 2's scatter: each shard emits its racks' desired
// dependency flows in rack-major, VM-ascending order. Only reads of the
// dependency graph and cluster placement happen here; all flow-network
// mutation is the coordinator's (mergeFlows).
func (r *Runtime) flowShard(s int) {
	sh := r.sh
	start := time.Now()
	wants := sh.wants[s][:0]
	for i := sh.vmLo[s]; i < sh.vmHi[s]; i++ {
		vm := sh.vms[i]
		for _, peerID := range r.Cluster.Deps.Peers(vm.ID) {
			peer := r.Cluster.VM(peerID)
			if peer == nil || peer.Host() == nil || vm.Host() == nil {
				continue
			}
			a, b := vm.ID, peerID
			if a > b {
				a, b = b, a
			}
			srcNode := vm.Host().Rack().NodeID
			dstNode := peer.Host().Rack().NodeID
			if srcNode == dstNode {
				continue // intra-rack traffic never crosses the fabric
			}
			wants = append(wants, flowWant{
				key:  [2]int{a, b},
				src:  srcNode,
				dst:  dstNode,
				rate: r.opts.FlowRate(sh.cur[i].TRF),
				ds:   vm.DelaySensitive || peer.DelaySensitive,
			})
		}
	}
	sh.wants[s] = wants
	sh.dur[s] = time.Since(start)
}

// mergeFlows is phase 2's gather: concatenating the shard want-lists in
// shard order reproduces the reference engine's global iteration order, so
// first-encounter-wins dedup picks the same rate for every pair; the
// reconcile and admission passes are byte-for-byte the reference logic
// over reused scratch.
func (r *Runtime) mergeFlows() {
	sh := r.sh
	clear(sh.desired)
	for s := 0; s < sh.n; s++ {
		for _, w := range sh.wants[s] {
			if _, ok := sh.desired[w.key]; !ok {
				sh.desired[w.key] = w
			}
		}
	}
	existing := sh.keyBuf[:0]
	for key := range r.flowByPair {
		existing = append(existing, key)
	}
	sh.keyBuf = existing
	sortKeys(existing)
	for _, key := range existing {
		id := r.flowByPair[key]
		f := r.Flows.Flow(id)
		w, ok := sh.desired[key]
		if f == nil || !ok || f.Src != w.src || f.Dst != w.dst {
			if f != nil {
				r.Flows.RemoveFlow(id)
			}
			delete(r.flowByPair, key)
			continue
		}
		if f.Rate != w.rate {
			_ = r.Flows.SetRate(f, w.rate)
		}
		delete(sh.desired, key) // handled
	}
	admit := sh.admitBuf[:0]
	for key := range sh.desired {
		admit = append(admit, key)
	}
	sh.admitBuf = admit
	sortKeys(admit)
	for _, key := range admit {
		w := sh.desired[key]
		f, err := r.Flows.AddFlow(w.src, w.dst, w.rate, w.ds)
		if err != nil {
			continue // unroutable pairs are skipped, not fatal
		}
		r.flowByPair[key] = f.ID
	}
}

// sortKeys orders flow keys by (src, dst). They are map keys, hence unique,
// so any correct sort gives the same order; this one runs every period and
// does not allocate.
func sortKeys(keys [][2]int) {
	slices.SortFunc(keys, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
}

// monitorShard is phase 3's parallel half: per-rack uplink monitors over
// the (read-only at this point) flow network. ToR alerts append to the
// shard-owned rack buckets; the per-shard max utilization folds to the
// global max afterwards.
func (r *Runtime) monitorShard(s int) {
	sh := r.sh
	start := time.Now()
	maxU := 0.0
	tor := 0
	for rk := sh.rackLo[s]; rk < sh.rackHi[s]; rk++ {
		util := r.uplinkUtilization(r.Cluster.Racks[rk])
		if util > maxU {
			maxU = util
		}
		q := &sh.qHolt[rk]
		if sh.qN[rk] == 0 {
			q.level, q.trend = util, 0
		} else {
			q.level, q.trend = holtCoeff.fold(q.level, q.trend, util)
		}
		sh.qN[rk]++
		occ := clamp01((q.level + q.trend*1) / queueLimit)
		if occ > queueThreshold {
			sh.alertsByRack[rk] = append(sh.alertsByRack[rk],
				alert.Alert{Kind: alert.FromLocalToR, Value: occ, RackIndex: rk})
			tor++
		}
	}
	sh.maxUtil[s] = maxU
	sh.torAlerts[s] = tor
	sh.dur[s] = time.Since(start)
}

// recordShardedPhase folds the per-shard durations of the round that just
// completed into the phase's skew summary and emits the phase event, with
// fan-out stats attached when tracing is on. Skew is max shard time over
// mean shard time: 1.0 = perfectly balanced, n = one shard did everything.
func (r *Runtime) recordShardedPhase(rec *obs.Recorder, skewIdx int, name string, total time.Duration) {
	sh := r.sh
	var sum, max time.Duration
	for s := 0; s < sh.n; s++ {
		d := sh.dur[s]
		sum += d
		if d > max {
			max = d
		}
	}
	skew := 1.0
	if sum > 0 {
		skew = float64(max) * float64(sh.n) / float64(sum)
	}
	r.skewSummaries[skewIdx].Observe(skew)
	ev := obs.Event{Kind: obs.KindPhase, Phase: name,
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: total.Seconds()}
	if rec.Enabled() {
		ev.Attrs = map[string]string{
			"shards":      strconv.Itoa(sh.n),
			"shard_max_s": strconv.FormatFloat(max.Seconds(), 'g', -1, 64),
			"shard_skew":  strconv.FormatFloat(skew, 'g', -1, 64),
		}
	}
	rec.Record(ev)
}

// shardedPredictPhase is phase 1: one shard round plus the deterministic
// coordinator fold. Factored out so the steady-state allocation gate can
// drive it directly (TestStepSteadyStateAllocs).
func (r *Runtime) shardedPredictPhase(stats *StepStats, rec *obs.Recorder, external bool) {
	sh := r.sh
	for i := range sh.alertsByRack {
		sh.alertsByRack[i] = sh.alertsByRack[i][:0]
	}
	sh.external = external
	sh.workers.Do(sh.predictFn)
	for s := 0; s < sh.n; s++ {
		stats.ServerAlerts += sh.serverAlerts[s]
	}
	if r.opts.DeepPredict {
		for rk := range sh.deepOK {
			if !sh.deepOK[rk] {
				continue
			}
			sh.deepOK[rk] = false
			p := sh.deepVal[rk]
			rec.Record(obs.Event{Kind: obs.KindForecast, Phase: "predict",
				Shim: rk, VM: -1, Host: -1, Value: p})
			if p > hotThreshold {
				stats.DeepWarnings++
			}
		}
	}
}

// costSources names the rack nodes whose shims will price migrations this
// period: racks with a ToR alert or with a server alert on one of their own
// hosts (a shim ignores alerts for VMs that have left its rack).
func (r *Runtime) costSources() []int {
	sh := r.sh
	out := sh.sourceBuf[:0]
	for idx, alerts := range sh.alertsByRack {
		rack := r.Cluster.Racks[idx]
		prices := false
		for i := 0; i < len(alerts) && !prices; i++ {
			switch a := alerts[i]; a.Kind {
			case alert.FromLocalToR:
				prices = true
			case alert.FromServer:
				h := r.Cluster.Host(a.HostID)
				prices = h != nil && h.Rack() == rack
			}
		}
		if prices {
			out = append(out, rack.NodeID)
		}
	}
	sh.sourceBuf = out
	return out
}

// advanceSharded is the sharded step body.
func (r *Runtime) advanceSharded(external bool) (*StepStats, error) {
	sh := r.sh
	stats := &StepStats{Step: r.step}
	r.step++
	rec := r.opts.Recorder
	rec.SetStep(stats.Step)

	// Phase 1 (shard round): observe, predict, raise alerts.
	phaseStart := time.Now()
	r.shardedPredictPhase(stats, rec, external)
	stats.Timings.Predict = time.Since(phaseStart)
	r.recordShardedPhase(rec, 0, "predict", stats.Timings.Predict)

	// Phase 2 (shard round + serialized merge): traffic plane.
	phaseStart = time.Now()
	sh.workers.Do(sh.flowsFn)
	r.mergeFlows()
	stats.Timings.Flows = time.Since(phaseStart)
	r.recordShardedPhase(rec, 1, "flows", stats.Timings.Flows)

	// Phase 3: hot switches and reroutes are serialized (they mutate the
	// flow network); the per-rack uplink monitors then run as a shard
	// round over the settled network.
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
	sh.workers.Do(sh.monitorFn)
	for s := 0; s < sh.n; s++ {
		if sh.maxUtil[s] > stats.MaxUplinkUtil {
			stats.MaxUplinkUtil = sh.maxUtil[s]
		}
		stats.ToRAlerts += sh.torAlerts[s]
	}
	stats.Timings.Congestion = time.Since(phaseStart)
	r.recordShardedPhase(rec, 2, "congestion", stats.Timings.Congestion)
	if rec.Enabled() {
		for idx := range sh.alertsByRack {
			if n := len(sh.alertsByRack[idx]); n > 0 {
				rec.Record(obs.Event{Kind: obs.KindAlerts, Phase: "manage",
					Shim: idx, VM: -1, Host: -1, Value: float64(n)})
			}
		}
	}

	// Phase 4 (serialized): management, identical to the reference engine
	// except shims materialize on a rack's first alert.
	phaseStart = time.Now()
	r.modelStale = true
	for idx := range sh.alertsByRack {
		// As in the reference engine, a rack participates when it has fresh
		// alerts.
		if len(sh.alertsByRack[idx]) == 0 {
			continue
		}
		if r.modelStale {
			// Sheriff is regional: a shim prices moves out of its own rack
			// into its dominating region only, so the cost tables are swept
			// from the racks about to ask, each only as far as its region.
			// A source the list missed, or a read outside the region, would
			// be swept in full by its first query, against the same weights.
			r.Flows.UpdateGraphBandwidth()
			r.Model.RefreshSources(r.costSources(), r.opts.Migrate.NeighborSwitchHops)
			r.modelStale = false
		}
		shim := r.shims[idx]
		if shim == nil {
			var err error
			shim, err = migrate.NewShim(r.Cluster, r.Model, r.Cluster.Racks[idx], r.opts.Migrate)
			if err != nil {
				return nil, fmt.Errorf("runtime: shim %d: %w", idx, err)
			}
			r.shims[idx] = shim
		}
		shimStart := time.Now()
		rep, err := shim.ProcessAlerts(sh.alertsByRack[idx])
		if err != nil {
			return nil, fmt.Errorf("runtime: shim %d: %w", idx, err)
		}
		rec.Record(obs.Event{Kind: obs.KindManage, Phase: "manage",
			Shim: idx, VM: -1, Host: -1, Value: time.Since(shimStart).Seconds()})
		stats.Migrations += len(rep.Migrations)
		stats.MigrationCost += rep.TotalCost
	}
	stats.Timings.Manage = time.Since(phaseStart)
	rec.Record(obs.Event{Kind: obs.KindPhase, Phase: "manage",
		Shim: migrate.ShimUnknown, VM: -1, Host: -1, Value: stats.Timings.Manage.Seconds()})

	stats.WorkloadStdDev = r.Cluster.WorkloadStdDev()
	for i, d := range []time.Duration{stats.Timings.Predict, stats.Timings.Flows, stats.Timings.Congestion, stats.Timings.Manage} {
		r.phaseSummaries[i].Observe(d.Seconds())
	}
	r.recordHistory(*stats)
	return stats, nil
}
