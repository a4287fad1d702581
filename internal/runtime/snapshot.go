package runtime

import (
	"fmt"
	"math"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/flow"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// SnapshotVersion is the snapshot format version Snapshot writes. Restore
// accepts versions 3 and 4 and rejects the rest rather than guessing at
// field semantics.
//
// Version 2 replaced the per-VM component histories of version 1 with the
// Holt (level, trend) states that fully determine the forecast
// continuation: a million-VM snapshot carries 8 floats per VM instead of
// 4 unbounded series. Queue monitors are carried the same way. Because
// the state is global (not per shard), the shard count is free to change
// between save and restore.
//
// Version 3 added each VM's admission rack. The engine fixes its
// rack-major VM order — which shard predicts a VM, which rack's bucket
// its server alert lands in, which endpoint's TRF a dependency flow takes
// its rate from, which rack its trace source is seeded with — when the
// runtime is built, and migrations do not move it. A restore therefore
// has to rebuild that order from where the VMs were admitted, not from
// where the restored cluster holds them now, or the resumed run parts
// from the straight one at the first step the two orders disagree on.
//
// Version 4 changed how the deep section's long arrays are spelled — base64
// of their bits (timeseries.Bits) where version 3 wrote decimal arrays —
// and no field's meaning, so a version 3 document still restores: the
// arrays' decoder reads either spelling.
const SnapshotVersion = 4

// VMSnap is one VM's forecasting state: the rack it was admitted on (its
// place in the engine's order, see SnapshotVersion), the generator replay
// position, the last observed profile, the observation count, and the
// per-component Holt (level, trend) pairs in profile order (CPU, Mem,
// IO, TRF).
type VMSnap struct {
	ID      int            `json:"id"`
	Rack    int            `json:"rack"`
	GenPos  int            `json:"gen_pos"`
	Current traces.Profile `json:"current"`
	Hist    int            `json:"hist"`
	Trend   [4][2]float64  `json:"trend"`
}

// Snapshot is the serializable state of a Runtime: everything needed so
// that a restored runtime's subsequent StepStats are bit-identical
// (timings aside) to the original continuing. Step history is reporting
// state, not simulation state, and is not carried. VMs are listed in
// ascending ID order, whatever the shard count.
//
// A Snapshot is plain data — encoding it is one reflection pass, with no
// nested document and no pre-encoded blob underneath — and it is a value:
// the runtime it was taken from never writes into it (see Selector.State
// for what a deep pool's state shares and why that is safe), so a caller
// may hold it, encode it later, or encode it while the runtime steps on.
//
// The one codec below the reflection pass is a leaf: the deep section's
// long arrays (selector and training histories, NARNET weights, MSE rings,
// DeepHist) are timeseries.Bits, written as a base64 string of their bits
// because formatting ~100 000 shortest decimals was most of the cost of
// writing a deep snapshot. Everything an operator reads — VM rows, queue
// monitors, cluster, flows, the models' short coefficient vectors — stays
// decimal.
type Snapshot struct {
	Version    int                        `json:"version"`
	Step       int                        `json:"step"`
	Seed       int64                      `json:"seed"`
	Traces     *traces.Options            `json:"traces,omitempty"` // resolved trace options; replay requires them verbatim
	CostParams cost.Params                `json:"cost_params"`
	Cluster    *dcn.Snapshot              `json:"cluster"`
	Flows      *flow.Snapshot             `json:"flows"`
	FlowPairs  [][3]int                   `json:"flow_pairs,omitempty"` // [vmA, vmB, flowID]
	VMs        []VMSnap                   `json:"vms"`
	Queues     [][3]float64               `json:"queues"` // per-rack monitor (level, trend, count)
	ModelStale bool                       `json:"model_stale"`
	Deep       []*predictor.SelectorState `json:"deep,omitempty"`      // per-rack fitted selector (null = unfit)
	DeepHist   []timeseries.Bits          `json:"deep_hist,omitempty"` // per-rack pre-fit history
}

// Snapshot captures the runtime's full resumable state. It fails when a
// fitted deep pool contains an unserializable candidate.
func (r *Runtime) Snapshot() (*Snapshot, error) {
	sh := r.sh
	vms := make([]VMSnap, 0, len(sh.byID))
	for _, i := range sh.byID {
		pos := 0
		if sh.lite != nil {
			pos = sh.lite[i].Pos()
		} else if sh.srcs[i] != nil {
			pos = sh.srcs[i].Pos()
		}
		vs := VMSnap{ID: sh.vms[i].ID, Rack: int(sh.rack[i]), GenPos: pos, Current: sh.cur[i], Hist: int(sh.nObs[i])}
		for c := 0; c < 4; c++ {
			vs.Trend[c] = [2]float64{sh.pred[i][c].level, sh.pred[i][c].trend}
		}
		vms = append(vms, vs)
	}
	var queues [][3]float64
	for rk := range sh.qHolt {
		queues = append(queues, [3]float64{sh.qHolt[rk].level, sh.qHolt[rk].trend, float64(sh.qN[rk])})
	}
	return r.snapshotDoc(vms, queues, r.flowPairs())
}

// snapshotDoc is the snapshot around the step engine's own rows — per-VM
// forecasting states by ascending VM ID, per-rack queue monitors, flow pairs
// in pair order — which it takes as given: cluster, traffic plane and deep
// pools are the Runtime's whoever steps it.
func (r *Runtime) snapshotDoc(vms []VMSnap, queues [][3]float64, pairs [][3]int) (*Snapshot, error) {
	trOpts := r.opts.Traces
	snap := &Snapshot{
		Version:    SnapshotVersion,
		Step:       r.step,
		Seed:       r.opts.Seed,
		Traces:     &trOpts,
		CostParams: r.Model.Params(),
		Cluster:    r.Cluster.Snapshot(),
		Flows:      r.Flows.Snapshot(),
		FlowPairs:  pairs,
		VMs:        vms,
		Queues:     queues,
		ModelStale: r.modelStale,
	}
	if r.opts.DeepPredict {
		snap.Deep = make([]*predictor.SelectorState, len(r.deep))
		snap.DeepHist = make([]timeseries.Bits, len(r.deepHist))
		for i, sel := range r.deep {
			if sel == nil {
				continue
			}
			st, err := sel.State()
			if err != nil {
				return nil, fmt.Errorf("runtime: snapshot deep pool %d: %w", i, err)
			}
			snap.Deep[i] = &st
		}
		for i, h := range r.deepHist {
			b, err := timeseries.Pack(h.Raw())
			if err != nil {
				return nil, fmt.Errorf("runtime: snapshot deep history %d: %w", i, err)
			}
			snap.DeepHist[i] = b
		}
	}
	return snap, nil
}

// Restore rebuilds a runtime from a snapshot over a cluster that has
// already been restored from snap.Cluster (same topology construction,
// then dcn.Cluster.Restore) and a cost model built over that cluster.
// opts must describe the same regime as the original run — in particular
// Seed is taken from the snapshot (the generators replay from it),
// Traces must match the snapshot's regime.
// The shard count may differ from the run that produced the snapshot (the
// state is global, so the partition is free to change). A restored runtime
// resumes forecasting incrementally: per-VM Holt states, queue monitors,
// flow routes, and any fitted deep pools continue bit-exactly without
// cold-fitting.
func Restore(cluster *dcn.Cluster, model *cost.Model, opts Options, snap *Snapshot) (*Runtime, error) {
	if snap == nil {
		return nil, fmt.Errorf("runtime: restore from nil snapshot")
	}
	if snap.Version < 3 || snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("runtime: snapshot version %d not supported (want 3..%d)", snap.Version, SnapshotVersion)
	}
	if snap.Traces == nil {
		return nil, fmt.Errorf(`runtime: snapshot "traces" is missing`)
	}
	// The resolved trace options travel whole — adopt them verbatim (the
	// generators must replay the exact streams), but refuse a caller who
	// explicitly asked for a different family.
	if opts.Traces.Kind != traces.Diurnal && opts.Traces.Kind != snap.Traces.Kind {
		return nil, fmt.Errorf("runtime: snapshot traces kind %v does not match options kind %v",
			snap.Traces.Kind, opts.Traces.Kind)
	}
	opts.Traces = *snap.Traces // validated by build, which refuses a horizon past traces.MaxHours
	opts.Seed = snap.Seed
	if snap.Step < 0 {
		return nil, fmt.Errorf("runtime: snapshot step %d is negative", snap.Step)
	}
	if n := len(cluster.VMs()); len(snap.VMs) != n {
		return nil, fmt.Errorf("runtime: snapshot has %d VMs, cluster has %d", len(snap.VMs), n)
	}
	admission := make(map[int]int, len(snap.VMs))
	for _, vs := range snap.VMs {
		if cluster.VM(vs.ID) == nil {
			return nil, fmt.Errorf("runtime: snapshot VM %d not present in cluster", vs.ID)
		}
		if _, dup := admission[vs.ID]; dup {
			return nil, fmt.Errorf("runtime: snapshot lists VM %d twice", vs.ID)
		}
		if vs.Rack < 0 || vs.Rack >= len(cluster.Racks) {
			return nil, fmt.Errorf("runtime: snapshot VM %d admitted on rack %d, cluster has %d racks", vs.ID, vs.Rack, len(cluster.Racks))
		}
		admission[vs.ID] = vs.Rack
	}
	r, err := build(cluster, model, opts, admission)
	if err != nil {
		return nil, err
	}
	r.step = snap.Step
	r.modelStale = snap.ModelStale

	sh := r.sh
	for _, vs := range snap.VMs {
		i := sh.vmIndex[vs.ID]
		// A stream advances at most once a period (Step draws once per VM,
		// StepExternal not at all), so its position never passes the step.
		// Replaying a position costs one draw per profile skipped.
		if vs.GenPos < 0 || vs.GenPos > snap.Step {
			return nil, fmt.Errorf("runtime: snapshot VM %d has generator position %d, want 0..%d (the step)", vs.ID, vs.GenPos, snap.Step)
		}
		if vs.Hist < 0 || vs.Hist > math.MaxInt32 {
			return nil, fmt.Errorf("runtime: snapshot VM %d has history length %d, want 0..%d", vs.ID, vs.Hist, math.MaxInt32)
		}
		if sh.lite != nil {
			sh.lite[i].Skip(vs.GenPos)
		} else if vs.GenPos > 0 {
			r.source(int(i)).Skip(vs.GenPos)
		}
		sh.cur[i] = vs.Current
		sh.nObs[i] = int32(vs.Hist)
		for c := 0; c < 4; c++ {
			sh.pred[i][c] = holtState{level: vs.Trend[c][0], trend: vs.Trend[c][1]}
		}
	}

	if len(snap.Queues) != len(sh.qHolt) {
		return nil, fmt.Errorf("runtime: snapshot has %d queue monitors, cluster has %d racks", len(snap.Queues), len(sh.qHolt))
	}
	for rk, q := range snap.Queues {
		// Written as what is accepted so that NaN is refused too.
		if n := q[2]; !(n >= 0 && n <= math.MaxInt32 && n == math.Trunc(n)) {
			return nil, fmt.Errorf("runtime: snapshot rack %d has queue sample count %v, want an integer in 0..%d", rk, n, math.MaxInt32)
		}
		sh.qHolt[rk] = holtState{level: q[0], trend: q[1]}
		sh.qN[rk] = int32(q[2])
	}

	if err := r.Flows.Restore(snap.Flows); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	// No run lists a pair twice or gives a flow to two pairs.
	pairs, flows := make(map[[2]int]bool), make(map[int]bool)
	for _, p := range snap.FlowPairs {
		pair := [2]int{p[0], p[1]}
		switch {
		case r.Flows.Flow(p[2]) == nil:
			return nil, fmt.Errorf("runtime: snapshot pair (%d,%d) references missing flow %d", p[0], p[1], p[2])
		case pairs[pair]:
			return nil, fmt.Errorf("runtime: snapshot lists pair (%d,%d) twice", p[0], p[1])
		case flows[p[2]]:
			return nil, fmt.Errorf("runtime: snapshot gives flow %d to a second pair, (%d,%d)", p[2], p[0], p[1])
		}
		pairs[pair], flows[p[2]] = true, true
	}
	r.buildEdges(snap.FlowPairs)

	if opts.DeepPredict && snap.Deep != nil {
		if len(snap.Deep) != len(r.deep) || len(snap.DeepHist) != len(r.deepHist) {
			return nil, fmt.Errorf("runtime: snapshot deep state covers %d racks, cluster has %d", len(snap.Deep), len(r.deep))
		}
		for i, st := range snap.Deep {
			if st == nil {
				continue
			}
			sel := new(predictor.Selector)
			if err := sel.Restore(*st); err != nil {
				return nil, fmt.Errorf("runtime: restore deep pool %d: %w", i, err)
			}
			r.deep[i] = sel
		}
		for i, b := range snap.DeepHist {
			h, err := b.Floats()
			if err != nil {
				return nil, fmt.Errorf("runtime: restore deep history %d: %w", i, err)
			}
			r.deepHist[i].Append(h...)
		}
	}
	return r, nil
}
