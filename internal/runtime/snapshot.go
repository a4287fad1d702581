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

// SnapshotVersion is the snapshot format version Snapshot writes, and the
// only one Restore takes: older files are refused, not migrated.
//
// The per-VM state is the Holt (level, trend) pairs that fully determine
// the forecast continuation, not the component histories: a million-VM
// snapshot carries 8 floats per VM instead of 4 unbounded series. Queue
// monitors are carried the same way. Because the state is global (not per
// shard), the shard count is free to change between save and restore.
//
// Each VM also carries its admission rack. The engine fixes its rack-major
// VM order — which shard predicts a VM, which rack's bucket its server
// alert lands in, which endpoint's TRF a dependency flow takes its rate
// from, which rack its trace source is seeded with — when the runtime is
// built, and migrations do not move it. A restore therefore has to rebuild
// that order from where the VMs were admitted, not from where the restored
// cluster holds them now, or the resumed run parts from the straight one
// at the first step the two orders disagree on.
//
// Version 5 writes every section's rows as columns (VMColumns here,
// dcn.VMColumns, flow.FlowColumns and flow.LoadColumns below it), their
// floats as timeseries.Bits.
const SnapshotVersion = 5

// VMColumns is the step engine's per-VM forecasting state as columns, in
// ascending VM ID order: entry i of ID, Rack (the admission rack, see
// SnapshotVersion), GenPos (the generator replay position) and Hist (the
// observation count) is one VM, as are entries 4i..4i+3 of Current (its
// last observed profile: CPU, Mem, IO, TRF) and 8i..8i+7 of Trend (its
// per-component Holt level and trend, in profile order).
type VMColumns struct {
	ID      []int           `json:"id"`
	Rack    []int           `json:"rack"`
	GenPos  []int           `json:"gen_pos"`
	Hist    []int           `json:"hist"`
	Current timeseries.Bits `json:"current"`
	Trend   timeseries.Bits `json:"trend"`
}

// QueueColumns is the per-rack queue monitors as columns: entry r of
// Count is rack r's sample count, entries 2r and 2r+1 of Holt its level
// and trend.
type QueueColumns struct {
	Count []int           `json:"count"`
	Holt  timeseries.Bits `json:"holt"`
}

// Snapshot is the serializable state of a Runtime: everything needed so
// that a restored runtime's subsequent StepStats are bit-identical
// (timings aside) to the original continuing. Step history is reporting
// state, not simulation state, and is not carried.
//
// A Snapshot is plain data — encoding it is one reflection pass, with no
// nested document and no pre-encoded blob underneath — and it is a value:
// the runtime it was taken from never writes into it (see Selector.State
// for what a deep pool's state shares and why that is safe), so a caller
// may hold it, encode it later, or encode it while the runtime steps on.
//
// Rows travel as columns, and every float in them — VM and queue states,
// the cluster's VM attributes, flow rates and link loads, the deep
// section's histories, weights and MSE rings — is a timeseries.Bits, a
// base64 string of its bits: formatting shortest decimals was most of the
// cost of writing a snapshot. Integers stay decimal, so a file can still
// be searched for a VM, host or flow ID, and so do the models' short
// coefficient vectors.
type Snapshot struct {
	Version    int                        `json:"version"`
	Step       int                        `json:"step"`
	Seed       int64                      `json:"seed"`
	Traces     *traces.Options            `json:"traces,omitempty"` // resolved trace options; replay requires them verbatim
	CostParams cost.Params                `json:"cost_params"`
	Cluster    *dcn.Snapshot              `json:"cluster"`
	Flows      *flow.Snapshot             `json:"flows"`
	FlowPairs  [][3]int                   `json:"flow_pairs,omitempty"` // [vmA, vmB, flowID]
	VMs        VMColumns                  `json:"vms"`
	Queues     QueueColumns               `json:"queues"`
	ModelStale bool                       `json:"model_stale"`
	Deep       []*predictor.SelectorState `json:"deep,omitempty"`      // per-rack fitted selector (null = unfit)
	DeepHist   []timeseries.Bits          `json:"deep_hist,omitempty"` // per-rack pre-fit history
}

// engineRows is the step engine's own part of a snapshot before its floats
// are packed: the VM columns' integers with their floats beside them, in
// VMColumns' layout, the queue monitors likewise, and the flow pairs in
// pair order.
type engineRows struct {
	vms        VMColumns
	cur, trend []float64
	qCount     []int
	qHolt      []float64
	pairs      [][3]int
}

// Snapshot captures the runtime's full resumable state. It fails when a
// fitted deep pool contains an unserializable candidate.
func (r *Runtime) Snapshot() (*Snapshot, error) {
	sh := r.sh
	n := len(sh.byID)
	rows := engineRows{
		vms:   VMColumns{ID: make([]int, n), Rack: make([]int, n), GenPos: make([]int, n), Hist: make([]int, n)},
		cur:   make([]float64, 0, 4*n),
		trend: make([]float64, 0, 8*n),
		pairs: r.flowPairs(),
	}
	for k, i := range sh.byID {
		pos := 0
		if sh.lite != nil {
			pos = sh.lite[i].Pos()
		} else if sh.srcs[i] != nil {
			pos = sh.srcs[i].Pos()
		}
		rows.vms.ID[k], rows.vms.Rack[k], rows.vms.GenPos[k], rows.vms.Hist[k] = sh.vms[i].ID, int(sh.rack[i]), pos, int(sh.nObs[i])
		p := sh.cur[i]
		rows.cur = append(rows.cur, p.CPU, p.Mem, p.IO, p.TRF)
		for _, h := range sh.pred[i] {
			rows.trend = append(rows.trend, h.level, h.trend)
		}
	}
	for rk, q := range sh.qHolt {
		rows.qCount = append(rows.qCount, int(sh.qN[rk]))
		rows.qHolt = append(rows.qHolt, q.level, q.trend)
	}
	return r.snapshotDoc(rows)
}

// snapshotDoc is the snapshot around the step engine's own rows, which it
// packs and takes as given: cluster, traffic plane and deep pools are the
// Runtime's whoever steps it.
func (r *Runtime) snapshotDoc(rows engineRows) (*Snapshot, error) {
	cluster, err := r.Cluster.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("runtime: snapshot: %w", err)
	}
	flows, err := r.Flows.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("runtime: snapshot: %w", err)
	}
	trOpts := r.opts.Traces
	snap := &Snapshot{
		Version:    SnapshotVersion,
		Step:       r.step,
		Seed:       r.opts.Seed,
		Traces:     &trOpts,
		CostParams: r.Model.Params(),
		Cluster:    cluster,
		Flows:      flows,
		FlowPairs:  rows.pairs,
		VMs:        rows.vms,
		Queues:     QueueColumns{Count: rows.qCount},
		ModelStale: r.modelStale,
	}
	for _, col := range []struct {
		name string
		dst  *timeseries.Bits
		v    []float64
	}{
		{"VM current", &snap.VMs.Current, rows.cur},
		{"VM trend", &snap.VMs.Trend, rows.trend},
		{"queue holt", &snap.Queues.Holt, rows.qHolt},
	} {
		if *col.dst, err = timeseries.Pack(col.v); err != nil {
			return nil, fmt.Errorf("runtime: snapshot %s: %w", col.name, err)
		}
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

// unpack checks that the VM and queue columns are of equal length and
// returns their floats: the profiles, the Holt pairs and the queue pairs.
func (snap *Snapshot) unpack() (cur, trend, qHolt []float64, err error) {
	vms, q := &snap.VMs, &snap.Queues
	for _, col := range []struct {
		name string
		src  timeseries.Bits
		dst  *[]float64
	}{
		{"VM current", vms.Current, &cur},
		{"VM trend", vms.Trend, &trend},
		{"queue holt", q.Holt, &qHolt},
	} {
		if *col.dst, err = col.src.Floats(); err != nil {
			return nil, nil, nil, fmt.Errorf("runtime: snapshot %s: %w", col.name, err)
		}
	}
	if n := len(vms.ID); len(vms.Rack) != n || len(vms.GenPos) != n || len(vms.Hist) != n || len(cur) != 4*n || len(trend) != 8*n {
		return nil, nil, nil, fmt.Errorf("runtime: snapshot VM columns of unequal length: %d ids, %d racks, %d gen_pos, %d hist, %d current and %d trend values (want 4 and 8 a VM)",
			n, len(vms.Rack), len(vms.GenPos), len(vms.Hist), len(cur), len(trend))
	}
	if len(qHolt) != 2*len(q.Count) {
		return nil, nil, nil, fmt.Errorf("runtime: snapshot queue columns of unequal length: %d counts, %d holt values (want 2 a rack)", len(q.Count), len(qHolt))
	}
	return cur, trend, qHolt, nil
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
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("runtime: snapshot version %d not supported (want %d; older files are refused, not migrated)", snap.Version, SnapshotVersion)
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
	cur, trend, qHolt, err := snap.unpack()
	if err != nil {
		return nil, err
	}
	vms := &snap.VMs
	if n := len(cluster.VMs()); len(vms.ID) != n {
		return nil, fmt.Errorf("runtime: snapshot has %d VMs, cluster has %d", len(vms.ID), n)
	}
	admission := make(map[int]int, len(vms.ID))
	for k, id := range vms.ID {
		if cluster.VM(id) == nil {
			return nil, fmt.Errorf("runtime: snapshot VM %d not present in cluster", id)
		}
		if _, dup := admission[id]; dup {
			return nil, fmt.Errorf("runtime: snapshot lists VM %d twice", id)
		}
		if rk := vms.Rack[k]; rk < 0 || rk >= len(cluster.Racks) {
			return nil, fmt.Errorf("runtime: snapshot VM %d admitted on rack %d, cluster has %d racks", id, rk, len(cluster.Racks))
		}
		admission[id] = vms.Rack[k]
	}
	r, err := build(cluster, model, opts, admission)
	if err != nil {
		return nil, err
	}
	r.step = snap.Step
	r.modelStale = snap.ModelStale

	sh := r.sh
	for k, id := range vms.ID {
		i := sh.vmIndex[id]
		pos, hist := vms.GenPos[k], vms.Hist[k]
		// A stream advances at most once a period (Step draws once per VM,
		// StepExternal not at all), so its position never passes the step.
		// Replaying a position costs one draw per profile skipped.
		if pos < 0 || pos > snap.Step {
			return nil, fmt.Errorf("runtime: snapshot VM %d has generator position %d, want 0..%d (the step)", id, pos, snap.Step)
		}
		if hist < 0 || hist > math.MaxInt32 {
			return nil, fmt.Errorf("runtime: snapshot VM %d has history length %d, want 0..%d", id, hist, math.MaxInt32)
		}
		if sh.lite != nil {
			sh.lite[i].Skip(pos)
		} else if pos > 0 {
			r.source(int(i)).Skip(pos)
		}
		p := cur[4*k : 4*k+4]
		sh.cur[i] = traces.Profile{CPU: p[0], Mem: p[1], IO: p[2], TRF: p[3]}
		sh.nObs[i] = int32(hist)
		for c := range sh.pred[i] {
			sh.pred[i][c] = holtState{level: trend[8*k+2*c], trend: trend[8*k+2*c+1]}
		}
	}

	if len(snap.Queues.Count) != len(sh.qHolt) {
		return nil, fmt.Errorf("runtime: snapshot has %d queue monitors, cluster has %d racks", len(snap.Queues.Count), len(sh.qHolt))
	}
	for rk, n := range snap.Queues.Count {
		if n < 0 || n > math.MaxInt32 {
			return nil, fmt.Errorf("runtime: snapshot rack %d has queue sample count %d, want 0..%d", rk, n, math.MaxInt32)
		}
		sh.qHolt[rk] = holtState{level: qHolt[2*rk], trend: qHolt[2*rk+1]}
		sh.qN[rk] = int32(n)
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
