package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"sheriff/internal/dcn"
	"sheriff/internal/ingest"
	"sheriff/internal/obs"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/traces"
)

// daemon is what cmd/sheriffd assembles: the runtime and the ingest front
// end over one cluster, plus what a restart needs to rebuild them.
type daemon struct {
	rt        *runtime.Runtime
	svc       *ingest.Service
	buildTime time.Duration // topology, cluster, cost model and runtime

	cfg    sim.RuntimeConfig // snapshot workloads only
	rtOpts runtime.Options
	inOpts ingest.Options
}

// daemonState is sheriffd's on-disk snapshot document.
type daemonState struct {
	Config  sim.RuntimeConfig `json:"config"`
	Deep    bool              `json:"deep"`
	Runtime *runtime.Snapshot `json:"runtime"`
	Ingest  *ingest.Snapshot  `json:"ingest"`
}

// reporters are the VMs' metric reporters — the benchmark's input side.
// Each VM reports one of its rack's profile streams; the run seed picks
// which (a shuffle within the rack), so every seed offers the same load,
// regime schedule and per-rack alert counts to a different VM-to-stream
// pairing. The pairing is fixed at the initial placement: a VM that
// migrates keeps its stream, and a restarted daemon hears the same
// reporters.
type reporters struct {
	vm, stream, rack []int
	srcs             []traces.Source
	updates          []ingest.Update
	ext              []runtime.ExternalUpdate
	genTime          time.Duration
	profiles         int
}

func newReporters(c *dcn.Cluster, seed int64) *reporters {
	rng := rand.New(rand.NewSource(seed))
	rp := &reporters{}
	for _, rk := range c.Racks {
		var ids []int
		for _, vm := range rk.VMs() {
			ids = append(ids, vm.ID)
		}
		sort.Ints(ids)
		for i, j := range rng.Perm(len(ids)) {
			rp.vm = append(rp.vm, ids[i])
			rp.stream = append(rp.stream, ids[j])
			rp.rack = append(rp.rack, rk.Index)
		}
	}
	rp.updates = make([]ingest.Update, len(rp.vm))
	rp.ext = make([]runtime.ExternalUpdate, len(rp.vm))
	return rp
}

// open starts every reporter's stream at period skip.
func (rp *reporters) open(g traces.Generator, skip int) {
	rp.srcs = make([]traces.Source, len(rp.vm))
	for i := range rp.vm {
		rp.srcs[i] = g.Source(rp.stream[i], rp.rack[i])
		rp.srcs[i].Skip(skip)
	}
}

// next draws one period's profiles. Callers keep it outside every timed
// span; its cost is reported as traces.gen_s.
func (rp *reporters) next() {
	start := time.Now()
	for i, vm := range rp.vm {
		p := rp.srcs[i].Next()
		rp.updates[i] = ingest.Update{VM: vm, Profile: p}
		rp.ext[i] = runtime.ExternalUpdate{VM: vm, Profile: p}
	}
	rp.genTime += time.Since(start)
	rp.profiles += len(rp.vm)
}

// digest is the decision digest: every period's (or episode's) decisions
// folded into one FNV-1a hash, so a behaviour change shows as a changed
// digest and two passes over the same inputs can be held equal.
type digest struct{ h uint64 }

func newDigest() *digest {
	h := fnv.New64a()
	return &digest{h: h.Sum64()}
}

func (d *digest) fold(vals ...uint64) {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], d.h)
	h.Write(buf[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	d.h = h.Sum64()
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// counters are the decisions and work counts summed over a rep's measured
// units. They are deterministic, so they must agree between reps.
type counters struct {
	Prealerts, ServerAlerts, ToRAlerts, SwitchAlerts, DeepWarnings int
	AlertPeriods, Reroutes, HotSwitches                            int
	Migrations, Preemptions, Requeued                              int
	MigrationCost                                                  float64
}

// periodLog is one rep's measured window.
type periodLog struct {
	period, prealert, step []float64 // seconds, per period
	cpu                    []float64 // process CPU seconds, per period
	relief                 []bool    // period raised >=1 alert and committed >=1 migration or reroute
	migrations             []int
	snapshots              []float64 // seconds, per snapshot
	snapBytes              int
	counters
	digest *digest
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// period carries one collection period's samples through the daemon with
// exactly the calls cmd/sheriffd makes. The three timestamps t0 (samples
// in), t1 (pre-alerts out) and t2 (alerts managed) are always taken; a
// traced pass also stamps the two inner ingest boundaries and records
// spans. It returns the root span's index (-1 untraced).
func (d *daemon) period(rp *reporters, log *periodLog, tr *tracer, unit int) (int, error) {
	rp.next()
	c0 := cpuTime()
	t0 := time.Now()
	var ta, tb time.Time
	if _, err := d.svc.OfferBatch(rp.updates); err != nil {
		return -1, err
	}
	if tr != nil {
		ta = time.Now()
	}
	d.svc.ProcessPending()
	if tr != nil {
		tb = time.Now()
	}
	pre := d.svc.Poll()
	t1 := time.Now()
	st, err := d.rt.StepExternal(rp.ext)
	t2 := time.Now()
	c1 := cpuTime()
	if err != nil {
		return -1, err
	}
	root := -1
	if tr != nil {
		root = tr.add("period", t0, t2, -1, unit)
		tr.add("ingest.offer", t0, ta, root, unit)
		tr.add("ingest.drain", ta, tb, root, unit)
		tr.add("ingest.poll", tb, t1, root, unit)
		step := tr.add("runtime.step", t1, t2, root, unit)
		tm := st.Timings
		phases := tr.addChildren(step,
			[]string{"runtime.predict", "runtime.flows", "runtime.congestion", "runtime.manage"},
			[]time.Duration{tm.Predict, tm.Flows, tm.Congestion, tm.Manage})
		names := make([]string, len(tr.shims))
		for i := range names {
			names[i] = "migrate.shim"
		}
		tr.addChildren(phases[3], names, tr.shims)
		tr.shims = tr.shims[:0]
	}
	if log == nil {
		return root, nil
	}
	alerted := st.ServerAlerts+st.ToRAlerts+st.SwitchAlerts > 0
	log.period = append(log.period, t2.Sub(t0).Seconds())
	log.prealert = append(log.prealert, t1.Sub(t0).Seconds())
	log.step = append(log.step, t2.Sub(t1).Seconds())
	log.cpu = append(log.cpu, (c1 - c0).Seconds())
	log.relief = append(log.relief, alerted && st.Migrations+st.Reroutes > 0)
	log.migrations = append(log.migrations, st.Migrations)
	log.Prealerts += len(pre)
	log.ServerAlerts += st.ServerAlerts
	log.ToRAlerts += st.ToRAlerts
	log.SwitchAlerts += st.SwitchAlerts
	log.DeepWarnings += st.DeepWarnings
	if alerted {
		log.AlertPeriods++
	}
	log.Reroutes += st.Reroutes
	log.HotSwitches += st.HotSwitches
	log.Migrations += st.Migrations
	log.Preemptions += st.Preemptions
	log.Requeued += st.Requeued
	log.MigrationCost += st.MigrationCost
	log.digest.fold(uint64(len(pre)), uint64(st.ServerAlerts), uint64(st.ToRAlerts), uint64(st.SwitchAlerts),
		uint64(st.Migrations), math.Float64bits(st.MigrationCost), uint64(st.Reroutes), math.Float64bits(st.WorkloadStdDev))
	return root, nil
}

// snapshot writes the crash-safe snapshot sheriffd -snapshot writes:
// runtime and ingest state, one JSON document, temp file then rename.
// The loop stalls for all of it.
func (d *daemon) snapshot(path string, tr *tracer, root, unit int) (stall time.Duration, size int, err error) {
	s0 := time.Now()
	rs, err := d.rt.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	s1 := time.Now()
	is, err := d.svc.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	s2 := time.Now()
	blob, err := json.Marshal(daemonState{Config: d.cfg, Deep: d.rtOpts.DeepPredict, Runtime: rs, Ingest: is})
	if err != nil {
		return 0, 0, err
	}
	s3 := time.Now()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, 0, err
	}
	s4 := time.Now()
	if tr != nil {
		tr.spans[root].End = s4.Sub(tr.epoch).Nanoseconds() // the period lasts until the loop resumes
		sn := tr.add("snapshot", s0, s4, root, unit)
		tr.add("snapshot.runtime", s0, s1, sn, unit)
		tr.add("snapshot.ingest", s1, s2, sn, unit)
		tr.add("snapshot.encode", s2, s3, sn, unit)
		tr.add("snapshot.write", s3, s4, sn, unit)
	}
	return s4.Sub(s0), len(blob), nil
}

// restoreParts times a restart from the snapshot file, step by step.
type restoreParts struct {
	decode, cluster, runtime, ingest, firstPeriod time.Duration
}

func (p restoreParts) total() time.Duration {
	return p.decode + p.cluster + p.runtime + p.ingest + p.firstPeriod
}

// restore restarts the daemon from the snapshot file the way sheriffd
// does, reopens the reporters at the snapshot's period, and runs tail
// periods. The empty cluster it restores into is built before the clock
// starts. faithful reports whether the restarted daemon's own snapshot
// encodes to the file's bytes — the codecs lose nothing they carry.
func (d *daemon) restore(path string, rp *reporters, rec *obs.Recorder, tail int) (log *periodLog, parts restoreParts, faithful bool, err error) {
	cluster, model, err := sim.BuildCluster(d.cfg)
	if err != nil {
		return nil, parts, false, err
	}
	r0 := time.Now()
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, parts, false, err
	}
	var st daemonState
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, parts, false, fmt.Errorf("snapshot %s: %w", path, err)
	}
	r1 := time.Now()
	if err := cluster.Restore(st.Runtime.Cluster); err != nil {
		return nil, parts, false, err
	}
	r2 := time.Now()
	restored := &daemon{cfg: d.cfg, rtOpts: d.rtOpts, inOpts: d.inOpts}
	restored.rtOpts.Recorder, restored.inOpts.Recorder = rec, rec
	restored.rt, err = runtime.Restore(cluster, model, restored.rtOpts, st.Runtime)
	if err != nil {
		return nil, parts, false, err
	}
	defer restored.rt.Close()
	r3 := time.Now()
	restored.svc, err = ingest.FromSnapshot(st.Ingest, restored.inOpts)
	if err != nil {
		return nil, parts, false, err
	}
	r4 := time.Now()
	parts.decode, parts.cluster, parts.runtime, parts.ingest = r1.Sub(r0), r2.Sub(r1), r3.Sub(r2), r4.Sub(r3)

	again := path + ".again"
	if _, _, err := restored.snapshot(again, nil, 0, 0); err != nil {
		return nil, parts, false, err
	}
	blob2, err := os.ReadFile(again)
	if err != nil {
		return nil, parts, false, err
	}
	faithful = bytes.Equal(blob, blob2)

	rp2 := &reporters{vm: rp.vm, stream: rp.stream, rack: rp.rack, updates: rp.updates, ext: rp.ext}
	rp2.open(restored.rt.TraceGen(), st.Runtime.Step)
	log = &periodLog{digest: newDigest()}
	for i := 0; i < tail; i++ {
		if _, err := restored.period(rp2, log, nil, 0); err != nil {
			return nil, parts, false, err
		}
	}
	if tail > 0 {
		parts.firstPeriod = time.Duration(log.period[0] * float64(time.Second))
	}
	return log, parts, faithful, nil
}

// runPipelineRep is one fresh repetition of a pipeline workload: build,
// warm up, measure, and (snapshot workloads) restart from the last
// snapshot and compare the restarted daemon's tail with the straight
// run's.
func runPipelineRep(s spec, seed int64, ref *hostRef, tr *tracer, scratch string) (*rep, error) {
	r := &rep{scalars: make(map[string]float64)}
	rec := tr.recorder()

	beforeSetup := ref.sample()
	setup := time.Now()
	d, err := s.build(rec)
	if err != nil {
		return nil, err
	}
	defer d.rt.Close()
	b1 := time.Now()
	rp := newReporters(d.rt.Cluster, seed)
	rp.open(d.rt.TraceGen(), 0)
	b2 := time.Now()
	slowest := 0.0
	for i := 0; i < s.warm; i++ {
		w0 := time.Now()
		if _, err := d.period(rp, nil, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up period %d: %w", i, err)
		}
		slowest = max(slowest, time.Since(w0).Seconds())
	}
	b3 := time.Now()
	beforeWindow := ref.sample()
	r.setupS, r.setupFactor = b3.Sub(setup).Seconds(), between(beforeSetup, beforeWindow)
	goruntime.GC() // every rep starts its measured window from a collected heap
	r.scalars["setup.build_s"] = d.buildTime.Seconds()
	r.scalars["setup.ingest_s"] = (b1.Sub(setup) - d.buildTime).Seconds()
	r.scalars["setup.sources_s"] = b2.Sub(b1).Seconds()
	r.scalars["setup.warmup_s"] = b3.Sub(b2).Seconds()
	r.scalars["predictor.deep_fit_period_ms"] = slowest * 1e3
	ready := 0
	for rk := range d.rt.Cluster.Racks {
		if d.rt.DeepReady(rk) {
			ready++
		}
	}
	r.scalars["predictor.deep_ready_racks"] = float64(ready)

	if tr != nil {
		tr.counting = true // warm-up is set-up, not traced
	}
	eventsBefore := rec.Seq()
	statsBefore := d.svc.Stats()
	rp.genTime, rp.profiles = 0, 0
	log := &periodLog{digest: newDigest()}
	snapPath := filepath.Join(scratch, "daemon.snap")
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < s.measured; i++ {
		root, err := d.period(rp, log, tr, i)
		if err != nil {
			return nil, fmt.Errorf("period %d: %w", i, err)
		}
		if s.snapEvery > 0 && (i+1)%s.snapEvery == 0 {
			stall, size, err := d.snapshot(snapPath, tr, root, i)
			if err != nil {
				return nil, fmt.Errorf("snapshot after period %d: %w", i, err)
			}
			log.period[i] += stall.Seconds() // the next samples wait out the stall
			log.snapshots = append(log.snapshots, stall.Seconds())
			log.snapBytes = size
		}
	}
	goruntime.ReadMemStats(&m1)
	afterWindow := ref.sample()
	r.windowFactors = [2]float64{beforeWindow.factor(), afterWindow.factor()}
	if tr != nil {
		tr.counting = false
		r.scalars["obs.events"] = float64(rec.Seq() - eventsBefore)
	}
	r.log = log
	r.units = s.measured
	r.racks, r.vms = len(d.rt.Cluster.Racks), len(rp.vm)
	r.updates = s.measured * len(rp.vm)
	r.mallocs = float64(m1.Mallocs - m0.Mallocs)
	r.scalars["heap.bytes_per_update"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.updates)
	r.scalars["heap.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	r.scalars["heap.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	r.scalars["traces.gen_s"] = rp.genTime.Seconds()
	r.scalars["traces.ns_per_profile"] = float64(rp.genTime.Nanoseconds()) / float64(rp.profiles)
	if sk, ok := d.rt.PhaseSummaries()["predict_skew"]; ok {
		r.scalars["runtime.predict_skew"] = sk.Mean()
	}

	// Ingest counters over the measured window, and conservation over the
	// daemon's whole life.
	st := d.svc.Stats()
	r.scalars["ingest.offered"] = float64(st.Offered - statsBefore.Offered)
	r.scalars["ingest.accepted"] = float64(st.Accepted - statsBefore.Accepted)
	r.scalars["ingest.dropped"] = float64(st.Dropped - statsBefore.Dropped)
	r.scalars["ingest.processed"] = float64(st.Processed - statsBefore.Processed)
	r.scalars["ingest.queue_wait_p99_us"] = st.LatencyP99 * 1e6
	r.attempted = r.updates + s.measured
	r.failed = int(st.Dropped - statsBefore.Dropped)
	r.alerted = log.ServerAlerts
	r.check("ingest conservation", st.Offered == st.Accepted+st.Dropped && st.Processed == st.Accepted && st.Pending == 0,
		fmt.Sprintf("offered %d accepted %d dropped %d processed %d pending %d", st.Offered, st.Accepted, st.Dropped, st.Processed, st.Pending))

	if s.snapEvery > 0 {
		// The file holds the state after the last measured period. The
		// straight daemon runs the tail; a restarted one must repeat it.
		straight := &periodLog{digest: newDigest()}
		for i := 0; i < s.tail; i++ {
			if _, err := d.period(rp, straight, nil, 0); err != nil {
				return nil, fmt.Errorf("tail period %d: %w", i, err)
			}
		}
		restored, parts, faithful, err := d.restore(snapPath, rp, rec, s.tail)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		r.restoreS, r.restoreFactor = parts.total().Seconds(), between(afterWindow, ref.sample())
		r.scalars["snapshot.decode_s"] = parts.decode.Seconds()
		r.scalars["snapshot.restore_runtime_s"] = (parts.cluster + parts.runtime).Seconds()
		r.scalars["snapshot.restore_ingest_s"] = parts.ingest.Seconds()
		r.check("restarted daemon's snapshot encodes to the file's bytes", faithful, "")
		// Not a check: at this commit a daemon restarted on BCube does not
		// repeat the straight run's tail (see README, "What the restart
		// shows"), so the benchmark reports the fact instead of failing on it.
		if restored.digest.h == straight.digest.h {
			r.scalars["snapshot.tail_match"] = 1
		} else {
			r.scalars["snapshot.tail_match"] = 0
		}
	}
	r.check("every VM on one host, no host over capacity", placementOK(d.rt.Cluster), "")
	r.digest = log.digest.String()
	if tr != nil {
		probeLayers(d, log.Migrations > 0, r.scalars)
	}
	return r, nil
}

// placementOK checks the cluster invariants: every VM is on exactly one
// host, and no host holds more than its capacity.
func placementOK(c *dcn.Cluster) bool {
	seen := make(map[int]int)
	for _, h := range c.Hosts() {
		if h.Used() > h.Capacity+1e-9 {
			return false
		}
		for _, vm := range h.VMs() {
			if vm.Host() != h {
				return false
			}
			seen[vm.ID]++
		}
	}
	vms := c.VMs()
	if len(seen) != len(vms) {
		return false
	}
	for _, vm := range vms {
		if seen[vm.ID] != 1 {
			return false
		}
	}
	return true
}
