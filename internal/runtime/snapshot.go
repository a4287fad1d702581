package runtime

import (
	"fmt"
	"math"
	"slices"

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
// from — when the runtime is built, and migrations do not move it. A restore therefore has to rebuild
// that order from where the VMs were admitted, not from where the restored
// cluster holds them now, or the resumed run parts from the straight one
// at the first step the two orders disagree on.
//
// Version 5 writes every section's rows as columns (VMColumns here,
// dcn.VMColumns, flow.FlowColumns and flow.LoadColumns below it), their
// floats as timeseries.Bits. Version 6 drops the per-VM generator
// position: the runtime draws from no stream, so it has none to carry.
// Version 7 drops the flag that marked the cost tables stale: every manage
// phase refreshes them before its first shim asks, so nothing about them
// carries across periods. Version 8 holds each fitted deep pool in fixed
// state: its refit window (the last N observations, N being the length
// the pool was fitted on) and each ARIMA candidate's innovation tails, in
// place of every value observed since the fit and the models' copies of
// their training series. Version 9 carries the deep section as columns
// too (DeepColumns): one shape column, one packed parameter array per
// fitted rack, shared by every snapshot, and one state array for all
// racks, in place of a record per rack and per candidate; and the flow
// paths as one flat column with end offsets. Version 10 changes no field:
// the diurnal and surge streams its trace options name are drawn from PCG
// streams since, so a restart from a version 9 file would go on with
// other inputs than the run that wrote it.
const SnapshotVersion = 10

// VMColumns is the step engine's per-VM forecasting state as columns, in
// ascending VM ID order: entry i of ID, Rack (the admission rack, see
// SnapshotVersion) and Hist (the observation count) is one VM, as are
// entries 4i..4i+3 of Current (its last observed profile: CPU, Mem, IO,
// TRF) and 8i..8i+7 of Trend (its per-component Holt level and trend, in
// profile order).
type VMColumns struct {
	ID      []int           `json:"id"`
	Rack    []int           `json:"rack"`
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

// DeepColumns is the deep forecasting pools as columns, in rack order.
// Shape holds, per rack, 0 for a rack whose pool is not fitted, or the
// fitted pool's shape as predictor.Selector.AppendState writes it (its
// first int, the candidate count, is never 0); State is every fitted
// pool's state, one after another. Models[r] is rack r's parameters
// (predictor.Selector.Models), null for an unfit rack: packed when the
// pool was fitted or restored, and shared by every snapshot since.
// HistLen[r] is the length of rack r's pre-fit history, and Hist every
// rack's, one after another.
type DeepColumns struct {
	Shape   []int             `json:"shape"`
	Models  []timeseries.Bits `json:"models"`
	State   timeseries.Bits   `json:"state"`
	HistLen []int             `json:"hist_len"`
	Hist    timeseries.Bits   `json:"hist"`
}

// Snapshot is the serializable state of a Runtime: everything needed so
// that a restored runtime's subsequent StepStats are bit-identical
// (timings aside) to the original continuing. A step's StepStats go to
// its caller; the runtime keeps none, so a snapshot carries none.
//
// A Snapshot is plain data — encoding it is one reflection pass, with no
// nested document and no pre-encoded blob underneath — and it is a value:
// the runtime it was taken from never writes into it (the deep pools'
// parameters it shares are never written after their fit), so a caller
// may hold it, encode it later, or encode it while the runtime steps on.
//
// Rows travel as columns, and every float in them — VM and queue states,
// the cluster's VM attributes, flow rates and link loads, the deep pools'
// parameters and state — is a timeseries.Bits, a base64 string of its
// bits: formatting shortest decimals was most of the cost of writing a
// snapshot. Integers stay decimal, so a file can still be searched for a
// VM, host or flow ID.
type Snapshot struct {
	Version    int             `json:"version"`
	Step       int             `json:"step"`
	Seed       int64           `json:"seed"`
	Traces     *traces.Options `json:"traces,omitempty"` // resolved trace options: the streams a restarted caller reopens
	CostParams cost.Params     `json:"cost_params"`
	Cluster    *dcn.Snapshot   `json:"cluster"`
	Flows      *flow.Snapshot  `json:"flows"`
	FlowPairs  [][3]int        `json:"flow_pairs,omitempty"` // [vmA, vmB, flowID]
	VMs        VMColumns       `json:"vms"`
	Queues     QueueColumns    `json:"queues"`
	Deep       *DeepColumns    `json:"deep,omitempty"`
}

// Snapshot captures the runtime's full resumable state. It fails when a
// fitted deep pool contains an unserializable candidate, and when a VM has
// left or joined the cluster since the runtime was built (the error names
// it): Restore would refuse that file.
func (r *Runtime) Snapshot() (*Snapshot, error) {
	sh := r.sh
	n := len(sh.byID)
	vms := VMColumns{ID: make([]int, n), Rack: make([]int, n), Hist: make([]int, n)}
	cur, trend := make([]float64, 0, 4*n), make([]float64, 0, 8*n)
	for k, i := range sh.byID {
		vms.ID[k], vms.Rack[k], vms.Hist[k] = sh.vms[i].ID, int(sh.rack[i]), int(sh.nObs[i])
		p := sh.cur[i]
		cur = append(cur, p.CPU, p.Mem, p.IO, p.TRF)
		for _, h := range sh.pred[i] {
			trend = append(trend, h.level, h.trend)
		}
	}
	queues := QueueColumns{Count: make([]int, len(sh.qHolt))}
	qHolt := make([]float64, 0, 2*len(sh.qHolt))
	for rk, q := range sh.qHolt {
		queues.Count[rk] = int(sh.qN[rk])
		qHolt = append(qHolt, q.level, q.trend)
	}

	cluster, err := r.Cluster.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("runtime: snapshot: %w", err)
	}
	if err := sameVMs(vms.ID, cluster.VMs.ID); err != nil {
		return nil, err
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
		FlowPairs:  r.flowPairs(),
		VMs:        vms,
		Queues:     queues,
	}
	for _, col := range []struct {
		name string
		dst  *timeseries.Bits
		v    []float64
	}{
		{"VM current", &snap.VMs.Current, cur},
		{"VM trend", &snap.VMs.Trend, trend},
		{"queue holt", &snap.Queues.Holt, qHolt},
	} {
		if *col.dst, err = timeseries.Pack(col.v); err != nil {
			return nil, fmt.Errorf("runtime: snapshot %s: %w", col.name, err)
		}
	}
	if r.opts.DeepPredict {
		if snap.Deep, err = r.deepColumns(); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// deepColumns appends every rack's pool to the shape and state buffers the
// runtime keeps for them, and packs each once. Its allocations do not
// depend on the number of racks.
func (r *Runtime) deepColumns() (*DeepColumns, error) {
	d := &DeepColumns{Models: make([]timeseries.Bits, len(r.deep)), HistLen: make([]int, len(r.deep))}
	shape, state := r.deepShape[:0], r.deepState[:0]
	for rk, sel := range r.deep {
		if sel == nil {
			shape = append(shape, 0)
			continue
		}
		var err error
		if shape, state, err = sel.AppendState(shape, state); err != nil {
			return nil, fmt.Errorf("runtime: snapshot deep pool %d: %w", rk, err)
		}
		d.Models[rk] = sel.Models()
	}
	d.Shape = slices.Clone(shape)
	var err error
	if d.State, err = timeseries.Pack(state); err != nil {
		return nil, fmt.Errorf("runtime: snapshot deep state: %w", err)
	}
	hist := state[:0]
	for rk, h := range r.deepHist {
		d.HistLen[rk] = h.Len()
		hist = append(hist, h.Raw()...)
	}
	if d.Hist, err = timeseries.Pack(hist); err != nil {
		return nil, fmt.Errorf("runtime: snapshot deep history: %w", err)
	}
	r.deepShape, r.deepState = shape, hist
	return d, nil
}

// sameVMs fails unless the engine steps exactly the cluster's VMs, both
// lists in ascending ID order: Restore rebuilds the engine over the
// cluster's VMs and refuses a file that lists others. The engine keeps
// stepping a VM removed from the cluster under it, and does not step one
// added, so a snapshot taken after either is refused here, naming the VM.
func sameVMs(stepped, cluster []int) error {
	i, j := 0, 0
	for i < len(stepped) || j < len(cluster) {
		switch {
		case i < len(stepped) && j < len(cluster) && stepped[i] == cluster[j]:
			i, j = i+1, j+1
		case j == len(cluster) || i < len(stepped) && stepped[i] < cluster[j]:
			return fmt.Errorf("runtime: snapshot: VM %d has left the cluster but is still stepped; a restore could not rebuild it", stepped[i])
		default:
			return fmt.Errorf("runtime: snapshot: VM %d joined the cluster after the runtime was built and is not stepped; a restore could not rebuild it", cluster[j])
		}
	}
	return nil
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
	if n := len(vms.ID); len(vms.Rack) != n || len(vms.Hist) != n || len(cur) != 4*n || len(trend) != 8*n {
		return nil, nil, nil, fmt.Errorf("runtime: snapshot VM columns of unequal length: %d ids, %d racks, %d hist, %d current and %d trend values (want 4 and 8 a VM)",
			n, len(vms.Rack), len(vms.Hist), len(cur), len(trend))
	}
	if len(qHolt) != 2*len(q.Count) {
		return nil, nil, nil, fmt.Errorf("runtime: snapshot queue columns of unequal length: %d counts, %d holt values (want 2 a rack)", len(q.Count), len(qHolt))
	}
	return cur, trend, qHolt, nil
}

// Restore rebuilds a runtime from a snapshot over a cluster that has
// already been restored from snap.Cluster (same topology construction,
// then dcn.Cluster.Restore) and a cost model built over that cluster.
// opts must describe the same regime as the original run: Seed and Traces
// are taken from the snapshot, and a Traces kind that names another family
// is refused. The shard count may differ from the run that produced the snapshot (the
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
	// The resolved trace options travel whole — adopt them verbatim (a
	// restarted caller reopens its reporters from them), but refuse a
	// caller who explicitly asked for a different family.
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

	sh := r.sh
	for k, id := range vms.ID {
		i, hist := sh.vmIndex[id], vms.Hist[k]
		if hist < 0 || hist > math.MaxInt32 {
			return nil, fmt.Errorf("runtime: snapshot VM %d has history length %d, want 0..%d", id, hist, math.MaxInt32)
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
		if err := r.restoreDeep(snap.Deep); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// restoreDeep rebuilds every rack's pool and pre-fit history from the deep
// columns, which must be read to their ends. Each rack's pool is checked
// against the columns before anything sized by them is allocated
// (predictor.Selector.Restore), and an error names the rack.
func (r *Runtime) restoreDeep(d *DeepColumns) error {
	if len(d.Models) != len(r.deep) || len(d.HistLen) != len(r.deep) {
		return fmt.Errorf("runtime: snapshot deep columns cover %d and %d racks, cluster has %d", len(d.Models), len(d.HistLen), len(r.deep))
	}
	state, err := d.State.Floats()
	if err != nil {
		return fmt.Errorf("runtime: snapshot deep state: %w", err)
	}
	hist, err := d.Hist.Floats()
	if err != nil {
		return fmt.Errorf("runtime: snapshot deep history: %w", err)
	}
	shape := d.Shape
	for rk := range r.deep {
		switch {
		case len(shape) == 0:
			return fmt.Errorf("runtime: snapshot deep shape ends before rack %d", rk)
		case shape[0] == 0 && d.Models[rk] != nil:
			return fmt.Errorf("runtime: snapshot deep pool %d is not fitted but has models", rk)
		case shape[0] == 0:
			shape = shape[1:]
			continue
		}
		sel := new(predictor.Selector)
		if shape, state, err = sel.Restore(shape, d.Models[rk], state); err != nil {
			return fmt.Errorf("runtime: restore deep pool %d: %w", rk, err)
		}
		r.deep[rk] = sel
	}
	if len(shape) != 0 || len(state) != 0 {
		return fmt.Errorf("runtime: snapshot deep columns hold %d shape ints and %d state values past the last rack", len(shape), len(state))
	}
	for rk, n := range d.HistLen {
		if n < 0 || n > len(hist) {
			return fmt.Errorf("runtime: snapshot deep history of rack %d holds %d values, %d left", rk, n, len(hist))
		}
		r.deepHist[rk].Append(hist[:n]...)
		hist = hist[n:]
	}
	if len(hist) != 0 {
		return fmt.Errorf("runtime: snapshot deep history holds %d values past the last rack", len(hist))
	}
	return nil
}
