// The step engine.
//
// VM state lives in flat struct-of-arrays slices ordered rack-major
// (ascending rack index, ascending VM ID within a rack), partitioned into
// contiguous rack ranges owned by persistent shard workers (pool.Shards).
// Each phase is one batched round: the coordinator wakes every shard, the
// shards work only on the ranges they own, and the coordinator folds the
// per-shard results in shard order — which, because shards are contiguous
// in the global rack-major order, is the global rack-major fold whatever
// the shard count. Per-VM predictor state is the Holt (level, trend) pair
// per component, folded in place one observation a period: the state a
// forecast and its continuation need, and nothing of the history.
package runtime

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/dcn"
	"sheriff/internal/flow"
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

// holtState is one component's incremental Holt smoothing state.
type holtState struct{ level, trend float64 }

// fold advances h by one observation with the triage filter's
// coefficients, the ones every forecast the engine makes uses.
func (h *holtState) fold(x float64) {
	h.level, h.trend = smoothing.HoltStep(h.level, h.trend, x, smoothing.TriageAlpha, smoothing.TriageBeta)
}

// flush zeroes a subnormal level or trend (smoothing.Flush). The predict
// and monitor rounds flush their shard's states every smoothing.FlushEvery
// periods, by the period count the snapshot carries (Snapshot.Step), in a
// pass of their own after the fold loop, so the loop checks nothing per
// state.
func (h *holtState) flush() {
	h.level, h.trend = smoothing.Flush(h.level), smoothing.Flush(h.trend)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// edge is one slot of the dependency-edge table phase 2 syncs the traffic
// plane by: one per dependency pair with an endpoint in the engine, and one
// per other pair still holding a flow, in ascending (a, b) order.
type edge struct {
	a, b int        // the pair; a < b for a dependency
	src  int32      // engine index of the endpoint met first, whose TRF sets the rate; -1 never wants a flow
	peer int        // the other endpoint's VM ID
	f    *flow.Flow // the flow carrying the pair, or nil

	want, ds         bool // this period's wish, as the scatter (flowShard) wrote it
	srcNode, dstNode int
	rate             float64
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
	// written only by its owning shard during a phase round, except cur,
	// each VM's last reported profile, which StepExternal writes in place
	// before the first round: a VM that reports nothing keeps the one it had.
	vms       []*dcn.VM
	rack      []int32
	cur       []traces.Profile
	pred      [][4]holtState // per-component Holt state, profile order
	nObs      []int32        // profiles folded per VM
	rackStart []int32        // dense VM range of each rack (len racks+1)
	byID      []int32        // the dense indices in ascending VM ID order, as Snapshot lists them

	// Per-rack monitor state and the alert buckets, reused every period.
	qHolt        []holtState
	qN           []int32
	alertsByRack [][]alert.Alert

	// Deep-forecast scratch: the owning shard stores each rack's predicted
	// value, or marks a rack whose pool is due a fit (fitDeep fits it and
	// stores its value); the coordinator records and counts in rack order,
	// then clears.
	deepVal []float64
	deepOK  []bool
	deepDue []bool
	dueBuf  []int // fitDeep's scratch: the due racks, in rack order

	// vmIndex is indexed by VM ID (the cluster hands IDs out sequentially)
	// and holds each VM's dense index, -1 where no VM has the ID.
	vmIndex []int32

	// Per-shard fold outputs for the coordinator.
	dur          []time.Duration
	serverAlerts []int
	torAlerts    []int
	maxUtil      []float64

	edges       []edge // phase 2's dependency-edge table
	depsVersion uint64 // G_d's Version when edges was built

	sourceBuf []int // manage-phase scratch: rack nodes handed to MarkSources

	// The manage round's results, written by shard 0 (manageShard).
	migrations    int
	migrationCost float64
	manageErr     error

	// Prebuilt phase closures (method values) so Shards.Do never allocates.
	predictFn func(int)
	flowsFn   func(int)
	monitorFn func(int)
	manageFn  func(int)
}

// newShardState builds the engine's state over the cluster's VMs, each in
// the rack admission names for it or, unlisted, the rack it lives in now:
// dense rack-major VM arrays, a contiguous-rack shard partition of at most
// shards shards balanced by VM count, and the persistent worker group.
// The caller binds the phase closures.
func newShardState(cluster *dcn.Cluster, admission map[int]int, shards int, deep bool) (*shardState, error) {
	racks := len(cluster.Racks)
	if racks == 0 {
		return nil, fmt.Errorf("runtime: cluster has no racks")
	}
	vms := cluster.VMs()
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
			return nil, fmt.Errorf("runtime: VM ids %d..%d too sparse for %d VMs (ids index a dense table)", lo, hi, n)
		}
		sh.vmIndex = make([]int32, vms[n-1].ID+1)
		for i := range sh.vmIndex {
			sh.vmIndex[i] = -1
		}
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
	}

	// Shard partition: contiguous rack ranges, balanced by VM count, every
	// shard owning at least one rack.
	ns := min(shards, racks)
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
	// A rack's bucket holds at most one server alert per VM admitted on it
	// and one ToR alert: carved to that size out of one array, it never
	// grows.
	buckets := make([]alert.Alert, n+racks)
	sh.alertsByRack = make([][]alert.Alert, racks)
	for rk := range sh.alertsByRack {
		lo := int(sh.rackStart[rk]) + rk
		hi := int(sh.rackStart[rk+1]) + rk + 1
		sh.alertsByRack[rk] = buckets[lo:lo:hi]
	}
	if deep {
		sh.deepVal = make([]float64, racks)
		sh.deepOK = make([]bool, racks)
		sh.deepDue = make([]bool, racks)
	}
	sh.dur = make([]time.Duration, ns)
	sh.serverAlerts = make([]int, ns)
	sh.torAlerts = make([]int, ns)
	sh.maxUtil = make([]float64, ns)
	sh.workers = pool.NewShards(ns)
	return sh, nil
}

// buildEdges builds the edge table from G_d as it stands; a pair's rate
// comes from the endpoint met first in rack-major order. flows lists the
// pairs holding a flow as [a, b, flowID]; a non-dependency keeps its flow
// in a slot that never wants one. Each flow ID is resolved to its handle
// here, once; a flow the network does not hold leaves its pair without.
func (r *Runtime) buildEdges(flows [][3]int) {
	sh := r.sh
	edges := make([]edge, 0, len(sh.edges))
	for i, vm := range sh.vms {
		for _, p := range r.Cluster.Deps.Peers(vm.ID) {
			if uint(p) < uint(len(sh.vmIndex)) && sh.vmIndex[p] >= 0 && int(sh.vmIndex[p]) < i {
				continue // its slot came from p, which the engine met first
			}
			edges = append(edges, edge{a: min(vm.ID, p), b: max(vm.ID, p), src: int32(i), peer: p})
		}
	}
	for _, f := range flows {
		if h := r.Flows.Flow(f[2]); h != nil {
			edges = append(edges, edge{a: f[0], b: f[1], src: -1, f: h})
		}
	}
	// A flow's pair sorts after the dependency slot with its key, if any.
	slices.SortFunc(edges, func(x, y edge) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b), -cmp.Compare(x.src, y.src))
	})
	for k := 1; k < len(edges); k++ {
		if edges[k].a == edges[k-1].a && edges[k].b == edges[k-1].b {
			edges[k-1].f = edges[k].f
		}
	}
	sh.edges = slices.CompactFunc(edges, func(x, y edge) bool { return x.a == y.a && x.b == y.b })
	sh.depsVersion = r.Cluster.Deps.Version()
}

// predictShard is phase 1 for one shard: fold each VM's current profile
// (StepExternal wrote the reported ones into cur; a VM that reported
// nothing keeps its last) into its Holt states, and raise server
// pre-alerts into the shard-owned per-rack buckets — ascending VM ID
// within each rack, whatever the shard count.
// Deep-pool aggregation rides in the same round (it reads only the
// profiles of this shard's racks).
func (r *Runtime) predictShard(s int) {
	sh := r.sh
	start := time.Now()
	th := r.opts.Thresholds
	alerts := 0
	for i := sh.vmLo[s]; i < sh.vmHi[s]; i++ {
		p := sh.cur[i]
		hp := &sh.pred[i]
		if sh.nObs[i] == 0 {
			hp[0] = holtState{p.CPU, 0}
			hp[1] = holtState{p.Mem, 0}
			hp[2] = holtState{p.IO, 0}
			hp[3] = holtState{p.TRF, 0}
		} else {
			hp[0].fold(p.CPU)
			hp[1].fold(p.Mem)
			hp[2].fold(p.IO)
			hp[3].fold(p.TRF)
		}
		sh.nObs[i]++
		if sh.nObs[i] < 3 {
			continue // not enough history to extrapolate
		}
		v, fired := alert.Evaluate(traces.Profile{
			CPU: clamp01(hp[0].level + hp[0].trend*1),
			Mem: clamp01(hp[1].level + hp[1].trend*1),
			IO:  clamp01(hp[2].level + hp[2].trend*1),
			TRF: clamp01(hp[3].level + hp[3].trend*1),
		}, th)
		if !fired {
			continue
		}
		vm := sh.vms[i]
		vm.Alert = v
		a := alert.Alert{Kind: alert.FromServer, Value: v}
		if h := vm.Host(); h != nil {
			a.HostID = h.ID
		}
		rk := sh.rack[i]
		sh.alertsByRack[rk] = append(sh.alertsByRack[rk], a)
		alerts++
	}
	if r.step%smoothing.FlushEvery == 0 {
		for i := sh.vmLo[s]; i < sh.vmHi[s]; i++ {
			for c := range sh.pred[i] {
				sh.pred[i][c].flush()
			}
		}
	}
	if r.opts.DeepPredict {
		r.deepShard(s)
	}
	sh.serverAlerts[s] = alerts
	sh.dur[s] = time.Since(start)
}

// deepShard advances the deep forecasting pools of the shard's racks: each
// rack's aggregate stress (the mean of its VMs' current profile maxima)
// extends the pre-fit history, marks the rack due its one-time pool fit
// once there are DeepFitAfter points (fitDeep runs it after the round), or
// feeds the fitted selector. The prediction is left for the coordinator,
// which records it and counts warnings in rack order, so the trace does not
// depend on the shard count.
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
			sh.deepDue[rk] = h.Len() >= r.opts.DeepFitAfter
			continue
		}
		sel.Observe(agg)
		r.deepPredict(rk, sel)
	}
}

// deepPredict leaves rack rk's next deep forecast for the coordinator.
func (r *Runtime) deepPredict(rk int, sel *predictor.Selector) {
	if p, err := sel.Predict(); err == nil {
		r.sh.deepVal[rk] = p
		r.sh.deepOK[rk] = true
	}
}

// fitDeep fits the pools of the racks deepShard marked due, after the
// predict round and apart from the shard that owns each rack: a fit is
// tens of milliseconds where the rest of the round is microseconds, and
// the racks of one period fall due together. pool.Shared claims them one
// at a time, so both CPUs stay busy to the last fit, where a shard's
// static share of racks would leave one waiting on the other. Each fit is
// seeded by its rack and reads only its own history, so the pools do not
// depend on which worker fits them; a fit that fails is retried next
// period on a longer history.
func (r *Runtime) fitDeep() {
	sh := r.sh
	due := sh.dueBuf[:0]
	for rk, ok := range sh.deepDue {
		if ok {
			due = append(due, rk)
			sh.deepDue[rk] = false
		}
	}
	sh.dueBuf = due
	if len(due) == 0 {
		return
	}
	pool.Shared().ForEach(len(due), func(k int) {
		rk := due[k]
		fitted, err := predictor.New(r.deepHist[rk], predictor.Options{Seed: r.opts.Seed + int64(rk)})
		if err != nil {
			return // not enough signal yet; retry next period
		}
		r.deep[rk] = fitted
		r.deepHist[rk] = timeseries.New(nil)
		r.deepPredict(rk, fitted)
	})
}

// flowShard is phase 2's scatter: shard s writes this period's wish into
// its even share of the edge table's slots. It only reads VM state and
// placement; all flow-network mutation is the coordinator's (syncFlows).
func (r *Runtime) flowShard(s int) {
	sh := r.sh
	start := time.Now()
	n := len(sh.edges)
	for k := n * s / sh.n; k < n*(s+1)/sh.n; k++ {
		e := &sh.edges[k]
		e.want = false
		if e.src < 0 {
			continue
		}
		vm, peer := sh.vms[e.src], r.Cluster.VM(e.peer)
		if peer == nil || peer.Host() == nil || vm.Host() == nil {
			continue
		}
		e.srcNode, e.dstNode = vm.Host().Rack().NodeID, peer.Host().Rack().NodeID
		e.rate = r.opts.FlowRate(sh.cur[e.src].TRF)
		// Intra-rack traffic never crosses the fabric, and a rate that is
		// not a positive finite number is no traffic a link could carry.
		e.want = e.srcNode != e.dstNode && flow.ValidRate(e.rate)
		e.ds = vm.DelaySensitive || peer.DelaySensitive
	}
	sh.dur[s] = time.Since(start)
}

// syncFlows is phase 2: the edge table rebuilt if G_d changed, the scatter,
// then two passes in pair order — drop, re-create or re-rate the flows
// held, then admit the pairs that want one — so load sums and flow IDs do
// not depend on the shard count. A pair reaches its flow by the handle
// it holds, and drops the handle with the flow.
func (r *Runtime) syncFlows() error {
	sh := r.sh
	if r.Cluster.Deps.Version() != sh.depsVersion {
		r.buildEdges(r.flowPairs())
	}
	sh.workers.Do(sh.flowsFn)
	for k := range sh.edges {
		e := &sh.edges[k]
		f := e.f
		if f == nil {
			continue
		}
		if !e.want || f.Src != e.srcNode || f.Dst != e.dstNode {
			r.Flows.RemoveFlow(f.ID)
			e.f = nil
			continue
		}
		if f.Rate != e.rate {
			if err := r.Flows.SetRate(f, e.rate); err != nil {
				return fmt.Errorf("runtime: pair (%d,%d): %w", e.a, e.b, err)
			}
		}
	}
	for k := range sh.edges {
		e := &sh.edges[k]
		if !e.want || e.f != nil {
			continue
		}
		f, err := r.Flows.AddFlow(e.srcNode, e.dstNode, e.rate, e.ds)
		if err != nil {
			continue // unroutable pairs are skipped, not fatal
		}
		e.f = f
	}
	return nil
}

// flowPairs lists the pairs holding a flow as [a, b, flowID], in pair order.
func (r *Runtime) flowPairs() [][3]int {
	n := 0
	for _, e := range r.sh.edges {
		if e.f != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([][3]int, 0, n)
	for _, e := range r.sh.edges {
		if e.f != nil {
			out = append(out, [3]int{e.a, e.b, e.f.ID})
		}
	}
	return out
}

// monitorShard is phase 3's parallel half: per-rack uplink monitors over
// the (read-only at this point) flow network. HotSwitches refreshed the
// cached uplink maxima before the reroutes; a rack a reroute since moved
// load onto or off is scanned in place (flow.Network.OutUtilization). ToR
// alerts append to the shard-owned rack buckets; the per-shard max
// utilization folds to the global max afterwards.
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
			q.fold(util)
		}
		sh.qN[rk]++
		occ := clamp01((q.level + q.trend*1) / queueLimit)
		if occ > queueThreshold {
			sh.alertsByRack[rk] = append(sh.alertsByRack[rk],
				alert.Alert{Kind: alert.FromLocalToR, Value: occ})
			tor++
		}
	}
	if r.step%smoothing.FlushEvery == 0 {
		for rk := sh.rackLo[s]; rk < sh.rackHi[s]; rk++ {
			sh.qHolt[rk].flush()
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
func (r *Runtime) shardedPredictPhase(stats *StepStats, rec *obs.Recorder) {
	sh := r.sh
	for i := range sh.alertsByRack {
		sh.alertsByRack[i] = sh.alertsByRack[i][:0]
	}
	sh.workers.Do(sh.predictFn)
	for s := 0; s < sh.n; s++ {
		stats.ServerAlerts += sh.serverAlerts[s]
	}
	if r.opts.DeepPredict {
		r.fitDeep()
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

// manageShard is phase 4's round. Shard 0 runs the shims of the racks
// with alerts, in rack order, and stops at the first error; the other
// shards sweep the cost rows MarkSources left pending.
func (r *Runtime) manageShard(s int) {
	if s > 0 {
		r.Model.SweepPending(s)
		return
	}
	sh, rec := r.sh, r.opts.Recorder
	for idx := range sh.alertsByRack {
		if len(sh.alertsByRack[idx]) == 0 {
			continue
		}
		shim := r.shims[idx]
		if shim == nil {
			var err error
			shim, err = migrate.NewShim(r.Cluster, r.Model, r.Cluster.Racks[idx], r.mig, &r.ws)
			if err != nil {
				sh.manageErr = fmt.Errorf("runtime: shim %d: %w", idx, err)
				return
			}
			r.shims[idx] = shim
		}
		shimStart := time.Now()
		rep, err := shim.ProcessAlerts(sh.alertsByRack[idx])
		if err != nil {
			sh.manageErr = fmt.Errorf("runtime: shim %d: %w", idx, err)
			return
		}
		rec.Record(obs.Event{Kind: obs.KindManage, Phase: "manage",
			Shim: idx, VM: -1, Host: -1, Value: time.Since(shimStart).Seconds()})
		sh.migrations += len(rep.Migrations)
		sh.migrationCost += rep.TotalCost
	}
}

// advanceSharded is the sharded step body.
func (r *Runtime) advanceSharded() (StepStats, error) {
	sh := r.sh
	stats := StepStats{Step: r.step}
	r.step++
	rec := r.opts.Recorder
	rec.SetStep(stats.Step)

	// Phase 1 (shard round): observe, predict, raise alerts.
	phaseStart := time.Now()
	r.shardedPredictPhase(&stats, rec)
	stats.Timings.Predict = time.Since(phaseStart)
	r.recordShardedPhase(rec, 0, "predict", stats.Timings.Predict)

	// Phase 2 (shard round + serialized merge): traffic plane.
	phaseStart = time.Now()
	if err := r.syncFlows(); err != nil {
		return StepStats{}, err
	}
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

	// Phase 4 (shard round): management. A rack participates when it has
	// fresh alerts; its shim is built on its first. Phase 2 moved the link
	// loads the cost tables were priced on, so they are re-priced first.
	// Sheriff is regional: a shim prices moves out of its own rack into its
	// dominating region only, so only the rows of the racks about to ask
	// are named, each to be swept only as far as its region. Shard 0 runs
	// the shims in rack order and sweeps a named row the first time it
	// reads it; the other shards sweep the named rows from the back of the
	// list meanwhile. A source the list missed, or a read outside the
	// region, is swept in full by its first query, against the same
	// weights.
	phaseStart = time.Now()
	if slices.ContainsFunc(sh.alertsByRack, func(a []alert.Alert) bool { return len(a) > 0 }) {
		r.Flows.UpdateGraphBandwidth()
		r.Model.MarkSources(r.costSources(), r.mig.NeighborSwitchHops, sh.n)
		sh.migrations, sh.migrationCost = 0, 0
		sh.workers.Do(sh.manageFn)
		if err := sh.manageErr; err != nil {
			sh.manageErr = nil
			return StepStats{}, err
		}
		stats.Migrations, stats.MigrationCost = sh.migrations, sh.migrationCost
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
