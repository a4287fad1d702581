package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/ingest"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// The host has two cores; both values are fixed here and recorded in the
// result document, never left to NumCPU.
const (
	maxProcs = 2
	shards   = 2
)

// scenarioSeed fixes each workload's scenario — who is placed where, who
// depends on whom, and when the surge regimes strike. These decide how
// much work a period holds (periods of one surge run differ by 30x), so
// they are part of the workload's shape like its topology; the run seed
// varies the inputs within that shape (see reporters, and the episode
// seeds of ft16-dist-chaos).
const scenarioSeed = 1

// spec is one workload. Pipeline workloads set build; ft16-dist-chaos
// sets episodes.
type spec struct {
	name, why string

	// repsPer10s sizes a run: repetitions per 10 s of -seconds, chosen so
	// that one run at the driver's --seconds 10 takes about 20 s, set-up
	// and reference work included, on the host the sizes were chosen on.
	repsPer10s int

	build               func(rec *obs.Recorder) (*daemon, error)
	warm, measured      int
	snapEvery, tail     int
	episodes, chaosPods int

	// shape holds the workload to the layers it exists to exercise. Toy
	// sizes are too short to hold and leave it nil.
	shape func(r *rep, traced bool) []check
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// rep is one repetition's measurements. Times are as the clock read them;
// the factors say how slow the host ran the reference work around them
// (see hostRef), and assemble divides by them.
type rep struct {
	setupS, restoreS           float64
	setupFactor, restoreFactor float64
	windowFactors              [2]float64 // host factor right before and right after the measured units
	log                        *periodLog
	racks, vms                 int
	units, updates             int     // measured periods or episodes; VM updates carried
	mallocs                    float64 // heap objects allocated over the measured units
	scalars                    map[string]float64
	digest                     string
	checks                     []check

	attempted, failed int // operations: updates offered and calls made; drops and errors
	alerted, unplaced int // alerted VMs, and those no host would take
}

func (r *rep) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: detail})
}

// sizes scale a workload: the full ones are what BENCHMARK.json measures,
// the toy ones keep `go test` fast.
type sizes struct {
	ftPods, lsRacks, bcSwitches int
	warm, measured, calmPeriods int
	snapEvery, tail             int
	episodes                    int
	toy                         bool
}

var fullSizes = sizes{ftPods: 16, lsRacks: 1000, bcSwitches: 8, warm: 256, measured: 256, calmPeriods: 512, snapEvery: 8, tail: 8, episodes: 200}
var toySizes = sizes{ftPods: 4, lsRacks: 20, bcSwitches: 4, warm: 4, measured: 20, calmPeriods: 20, snapEvery: 5, tail: 4, episodes: 3, toy: true}

func workloads(z sizes) []spec {
	surge := func(kind sim.Kind, size int, deep bool, mode ingest.TriageMode) func(*obs.Recorder) (*daemon, error) {
		return func(rec *obs.Recorder) (*daemon, error) {
			d := &daemon{
				cfg: sim.RuntimeConfig{Kind: kind, Size: size, Seed: scenarioSeed, TraceKind: traces.Surge.String()},
				rtOpts: runtime.Options{Seed: scenarioSeed, Shards: shards, DeepPredict: deep, Recorder: rec,
					Traces: traces.Options{Kind: traces.Surge}},
				inOpts: ingest.Options{Mode: mode, Recorder: rec},
			}
			start := time.Now()
			rt, err := sim.BuildRuntime(d.cfg, d.rtOpts)
			if err != nil {
				return nil, err
			}
			d.rt, d.buildTime = rt, time.Since(start)
			d.svc, err = ingest.FromCluster(rt.Cluster, d.inOpts)
			return d, err
		}
	}
	// sim.RuntimeConfig cannot express dependency probability 0, so the
	// calm fabric is assembled the way sim.RunScale assembles it.
	calm := func(rec *obs.Recorder) (*daemon, error) {
		start := time.Now()
		ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: z.lsRacks})
		if err != nil {
			return nil, err
		}
		cluster, err := dcn.NewCluster(ls.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
		if err != nil {
			return nil, err
		}
		cluster.Populate(dcn.PopulateOptions{VMsPerHost: 4, MinCapacity: 5, MaxCapacity: 20, Seed: scenarioSeed})
		model, err := cost.NewDeferred(cluster, cost.PaperParams())
		if err != nil {
			return nil, err
		}
		rt, err := runtime.New(cluster, model, runtime.Options{Seed: scenarioSeed, Shards: shards, Recorder: rec,
			Traces:     traces.Options{Kind: traces.Lite},
			Thresholds: alert.Thresholds{CPU: 2, Mem: 2, IO: 2, TRF: 2}})
		if err != nil {
			return nil, err
		}
		d := &daemon{rt: rt, buildTime: time.Since(start)}
		d.svc, err = ingest.FromCluster(cluster, ingest.Options{Recorder: rec})
		return d, err
	}

	ws := []spec{
		{
			name:       "ft16-surge",
			why:        "the paper's operating point under stress: most periods raise alerts, so manage, congestion and flows do nearly all the work",
			repsPer10s: 6,
			build:      surge(sim.FatTree, z.ftPods, false, ingest.TriageFloat), warm: z.warm, measured: z.measured,
			shape: func(r *rep, _ bool) []check {
				return []check{{"shape: >=30% of periods raise alerts", 10*r.log.AlertPeriods >= 3*r.units,
					fmt.Sprintf("%d of %d", r.log.AlertPeriods, r.units)}}
			},
		},
		{
			name: "ls1000-calm",
			why:  "per-update cost: alert-free, so intake, triage, the predict round and per-step bookkeeping do all the work and migrate does none",
			// Holt needs three observations before it forecasts; a short
			// warm-up is enough and keeps set-up about the fabric itself.
			repsPer10s: 8,
			build:      calm, warm: min(z.warm, 16), measured: z.calmPeriods,
			shape: func(r *rep, _ bool) []check {
				l := r.log
				return []check{
					{"shape: no runtime alerts, no migrations", l.ServerAlerts+l.ToRAlerts+l.SwitchAlerts+l.Migrations == 0,
						fmt.Sprintf("%d server %d tor %d switch alerts, %d migrations", l.ServerAlerts, l.ToRAlerts, l.SwitchAlerts, l.Migrations)},
					{"shape: triage raises pre-alerts", l.Prealerts > 0, fmt.Sprintf("%d", l.Prealerts)},
				}
			},
		},
		{
			name:       "bc8-deep-snap",
			why:        "the same layers used differently: Q16.16 triage, ARIMA/NARNET pools, server-centric routing whose reroutes fire, and the snapshot codecs on the hot loop",
			repsPer10s: 5,
			build:      surge(sim.BCube, z.bcSwitches, true, ingest.TriageQuant), warm: z.warm, measured: z.measured,
			snapEvery: z.snapEvery, tail: z.tail,
			shape: func(r *rep, _ bool) []check {
				return []check{
					{"shape: deep pool fitted on every rack after warm-up", int(r.scalars["predictor.deep_ready_racks"]) == r.racks,
						fmt.Sprintf("%.0f of %d", r.scalars["predictor.deep_ready_racks"], r.racks)},
					{"shape: reroutes fire", r.log.Reroutes >= 1, fmt.Sprintf("%d", r.log.Reroutes)},
					{"shape: >=10 snapshots", len(r.log.snapshots) >= 10, fmt.Sprintf("%d", len(r.log.snapshots))},
				}
			},
		},
		{
			name:       "ft16-dist-chaos",
			why:        "the REQUEST/ACK/REJECT handshake, backoff, dup-suppression and fallback ladder over a lossy bus: the migrate layer driven by messages, bypassing ingest and runtime",
			repsPer10s: 6,
			episodes:   z.episodes, chaosPods: z.ftPods,
			shape: func(r *rep, traced bool) []check {
				cs := []check{{"shape: requests are retransmitted", r.scalars["migrate.retransmits"] > 0,
					fmt.Sprintf("%.0f", r.scalars["migrate.retransmits"])}}
				if traced { // the bus is built inside RunChaos; only the Recorder sees its drops
					cs = append(cs, check{"shape: the bus drops messages", r.scalars["comm.dropped"] > 0,
						fmt.Sprintf("%.0f", r.scalars["comm.dropped"])})
				}
				return cs
			},
		},
	}
	if z.toy {
		for i := range ws {
			ws[i].shape = nil
		}
	}
	return ws
}

// runRep runs one fresh repetition of the workload.
func runRep(s spec, seed int64, ref *hostRef, tr *tracer, scratch string) (*rep, error) {
	// Drop the previous repetition's daemon first, or peak RSS is two
	// daemons high whenever the collector happens to run late.
	goruntime.GC()
	if s.episodes > 0 {
		return runChaosRep(s, seed, ref, tr)
	}
	return runPipelineRep(s, seed, ref, tr, scratch)
}

// runChaosRep runs the episodes of ft16-dist-chaos. Each builds a fresh
// hot-pod cluster and relocates its alerted VMs with the distributed
// protocol over a bus that drops, duplicates, reorders and delays; only
// RunChaos is timed, and one episode is the workload's "period".
func runChaosRep(s spec, seed int64, ref *hostRef, tr *tracer) (*rep, error) {
	r := &rep{scalars: make(map[string]float64), units: s.episodes}
	log := &periodLog{digest: newDigest()}
	before := ref.sample()
	var build, populate time.Duration
	var mem0, mem1 goruntime.MemStats
	placed := true
	if tr != nil {
		tr.counting = true
	}
	for i := 0; i < s.episodes; i++ {
		epSeed := seed + int64(i)
		b0 := time.Now()
		sm, err := sim.Build(sim.Config{Kind: sim.FatTree, Size: s.chaosPods, Seed: epSeed})
		if err != nil {
			return nil, err
		}
		b1 := time.Now()
		sm.PopulateHotPods(0.5, 0.85, 0.35)
		b2 := time.Now()
		plan := faults.Plan{Seed: epSeed, Drop: 0.2, DupRate: 0.1, ReorderRate: 0.2, Jitter: 1}
		goruntime.ReadMemStats(&mem0)
		c0 := cpuTime()
		t0 := time.Now()
		res, err := sm.RunChaos(plan, migrate.DistOptions{Seed: epSeed, Recorder: tr.recorder()})
		t1 := time.Now()
		c1 := cpuTime()
		goruntime.ReadMemStats(&mem1)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", i, err)
		}
		if tr != nil {
			ep := tr.add("episode", b0, t1, -1, i)
			tr.add("sim.build", b0, b1, ep, i)
			tr.add("sim.populate", b1, b2, ep, i)
			tr.add("migrate.dist", t0, t1, ep, i)
		}
		build += b1.Sub(b0)
		populate += b2.Sub(b1)
		d := t1.Sub(t0).Seconds()
		log.period = append(log.period, d)
		log.step = append(log.step, d)
		log.cpu = append(log.cpu, (c1 - c0).Seconds())
		log.relief = append(log.relief, true)
		log.migrations = append(log.migrations, len(res.Migrations))
		log.Migrations += len(res.Migrations)
		log.MigrationCost += res.TotalCost
		log.Preemptions += res.Preemptions
		log.Requeued += res.Requeued
		r.mallocs += float64(mem1.Mallocs - mem0.Mallocs)
		r.alerted += len(res.Migrations) + len(res.Unplaced)
		r.unplaced += len(res.Unplaced)
		r.scalars["migrate.dist_rounds"] += float64(res.Rounds)
		r.scalars["migrate.rejects"] += float64(res.Rejected)
		r.scalars["migrate.retransmits"] += float64(res.Retransmits)
		r.scalars["migrate.suppressed"] += float64(res.Suppressed)
		r.scalars["migrate.fallbacks"] += float64(res.Fallbacks)
		r.scalars["migrate.search_space"] += float64(res.SearchSpace)
		log.digest.fold(uint64(len(res.Migrations)), math.Float64bits(res.TotalCost), uint64(res.SearchSpace), uint64(res.Rejected),
			uint64(res.Retransmits), uint64(res.Suppressed), uint64(res.Fallbacks), uint64(res.Rounds), uint64(len(res.Unplaced)))
		placed = placed && placementOK(sm.Cluster)
	}
	if tr != nil {
		tr.counting = false
		r.scalars["obs.events"] = float64(tr.rec.Seq())
		r.scalars["comm.dropped"] = tr.count(string(obs.KindDrop))
	}
	// Set-up and episodes alternate, so the same two samples serve both.
	after := ref.sample()
	r.windowFactors = [2]float64{before.factor(), after.factor()}
	r.setupFactor = between(before, after)
	r.log = log
	r.setupS = (build + populate).Seconds()
	r.scalars["sim.build_s"] = build.Seconds()
	r.scalars["sim.populate_s"] = populate.Seconds()
	r.attempted = s.episodes
	r.check("every VM on one host, no host over capacity", placed, "")
	r.digest = log.digest.String()
	return r, nil
}

// probeLayers times three layer operations on the end-of-run state, to
// explain runtime.manage_other_s and runtime.congestion_s. The cost and
// topology sweeps only run where management ran: on a calm fabric the
// deferred cost model is never built, and building it here would only
// measure the probe.
func probeLayers(d *daemon, managed bool, out map[string]float64) {
	const calls = 21
	probe := func(fn func()) float64 {
		ds := make([]float64, calls)
		for i := range ds {
			start := time.Now()
			fn()
			ds[i] = time.Since(start).Seconds()
		}
		return median(ds)
	}
	out["flow.hot_scan_us"] = 1e6 * probe(func() { d.rt.Flows.HotSwitches(0.9) })
	if !managed {
		return
	}
	out["cost.refresh_ms"] = 1e3 * probe(func() {
		d.rt.Flows.UpdateGraphBandwidth()
		d.rt.Model.Refresh()
	})
	g := d.rt.Cluster.Graph
	out["topology.sweep_ms"] = 1e3 * probe(func() { topology.DijkstraFrom(g, g.Racks(), topology.DistanceCost) })
}
