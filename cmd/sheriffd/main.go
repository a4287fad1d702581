// Command sheriffd runs the assembled Sheriff system as an ingest/serving
// daemon in simulated time: per collection period every VM's reporter
// (traces.Reporters, one stream per VM from the -traces family) reports a
// workload profile, the daemon ingests the period's reports through the
// rack-sharded ingest front end (triage pre-alerts, tail-drop
// backpressure), steps the runtime (runtime.StepExternal) on those same
// reports, and prints one status line per step.
//
// With -snapshot the daemon is crash-safe: the file is restored at
// startup if present (forecasting resumes incrementally — warm per-VM
// histories, fitted deep pools, exact flow state — instead of
// cold-fitting, and each reporter reopens its stream at the file's step),
// rewritten atomically every -snapshot-every steps, and flushed on
// SIGINT/SIGTERM or normal exit. With -listen it serves the
// live JSONL event stream to TCP subscribers, who attach and detach
// without disturbing the run: a subscriber that stops reading is cut off
// after one second's stalled write. -trace writes the same stream to a
// file; the trace is closed and parseable even when the run fails mid-way.
// With -check the placement, traffic-plane and ingest-conservation
// invariants are verified after every period, and the daemon exits non-zero
// naming the first one violated and the step.
//
// Usage:
//
//	sheriffd -topology fat-tree -size 8 -steps 50
//	sheriffd -size 8 -steps 20 -trace run.jsonl -snapshot run.snap
//	sheriffd -size 8 -steps 30 -deep -listen 127.0.0.1:7070
//	sheriffd -size 8 -steps 30 -triage quantized
//	sheriffd -topology bcube -size 4 -traces surge -steps 120 -check
//	sheriffd -topology leaf-spine -size 1000 -traces lite -steps 6   # a large fabric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sheriff/internal/ingest"
	"sheriff/internal/obs"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/traces"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sheriffd: %v\n", err)
		os.Exit(1)
	}
}

// daemonState is the on-disk snapshot: the build configuration (so a
// restore with different flags fails loudly instead of diverging
// silently) plus the runtime and ingest states.
type daemonState struct {
	Config  sim.RuntimeConfig `json:"config"`
	Deep    bool              `json:"deep"`
	Runtime *runtime.Snapshot `json:"runtime"`
	Ingest  *ingest.Snapshot  `json:"ingest"`
}

// run is the whole daemon behind a returned error so deferred cleanup —
// closing the trace, flushing counters — always fires; main's only job
// is the exit code. A -fail-step failure therefore still leaves a
// closed, parseable trace.
func run(args []string, out io.Writer) error { return runTapped(args, out, nil) }

// runTapped is run with a tap on what the reporters offer at each step,
// so a test can hold a restarted daemon's offered profiles against an
// uninterrupted one's. The slice is reused between steps.
func runTapped(args []string, out io.Writer, tap func(step int, offered []traces.Update)) (err error) {
	fs := flag.NewFlagSet("sheriffd", flag.ContinueOnError)
	topo := fs.String("topology", "fat-tree", "fat-tree, bcube, or leaf-spine")
	size := fs.Int("size", 8, "pods (fat-tree), switches per level (bcube), or leaves (leaf-spine)")
	steps := fs.Int("steps", 50, "collection periods to run in this invocation")
	hostsPerRack := fs.Int("hosts", 2, "hosts per rack")
	vmsPerHost := fs.Int("vms", 3, "VMs per host")
	depProb := fs.Float64("deps", 0.5, "dependency probability between VM pairs")
	seed := fs.Int64("seed", 1, "simulation seed")
	trace := fs.String("trace", "", "write a JSONL event trace of every step to this file")
	snapshot := fs.String("snapshot", "", "snapshot file: restored at startup if present, rewritten periodically and on shutdown")
	snapEvery := fs.Int("snapshot-every", 10, "steps between periodic snapshots (with -snapshot)")
	listen := fs.String("listen", "", "serve the live JSONL event stream to TCP subscribers on this address")
	deep := fs.Bool("deep", false, "enable per-rack deep forecasting pools (ARIMA/NARNET dynamic selection)")
	tracesKind := fs.String("traces", "", "trace-generator family: diurnal, lite, or surge (\"\" = diurnal)")
	triage := fs.String("triage", "", "ingest triage arithmetic: float or quantized (\"\" = float); snapshots restore across modes")
	failStep := fs.Int("fail-step", 0, "inject a failure after this step (testing the crash-safe trace path)")
	shards := fs.Int("shards", 0, "step-engine shard workers (0 = GOMAXPROCS)")
	check := fs.Bool("check", false, "verify the placement, traffic-plane and ingest-conservation invariants after every step; exit non-zero naming the first violation")
	if perr := fs.Parse(args); perr != nil {
		if errors.Is(perr, flag.ErrHelp) {
			return nil
		}
		return perr
	}
	// sim.RuntimeConfig reads zero as "the default"; a flag says what it
	// means or is refused.
	switch {
	case !(*depProb > 0 && *depProb <= 1):
		return fmt.Errorf("-deps %v is outside (0, 1]", *depProb)
	case *hostsPerRack < 1:
		return fmt.Errorf("-hosts %d is below 1", *hostsPerRack)
	case *vmsPerHost < 1:
		return fmt.Errorf("-vms %d is below 1", *vmsPerHost)
	case *steps < 0:
		return fmt.Errorf("-steps %d is negative", *steps)
	case *snapEvery < 0:
		return fmt.Errorf("-snapshot-every %d is negative", *snapEvery)
	}
	kind, err := sim.ParseKind(*topo)
	if err != nil {
		return err
	}
	tkind, err := traces.ParseKind(*tracesKind)
	if err != nil {
		return err
	}
	tmode, err := ingest.ParseTriageMode(*triage)
	if err != nil {
		return err
	}
	// Normalize so "-traces diurnal" and the default spell the config
	// identity the same way (and pre-existing snapshots keep matching).
	traceKind := ""
	if tkind != traces.Diurnal {
		traceKind = tkind.String()
	}
	cfg := sim.RuntimeConfig{
		Kind:           kind,
		Size:           *size,
		HostsPerRack:   *hostsPerRack,
		VMsPerHost:     *vmsPerHost,
		DependencyProb: *depProb,
		Seed:           *seed,
		TraceKind:      traceKind,
	}

	var rec *obs.Recorder
	if *trace != "" || *listen != "" {
		var sinks []obs.Sink
		if *trace != "" {
			f, cerr := os.Create(*trace)
			if cerr != nil {
				return cerr
			}
			defer func() {
				if cerr := f.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
			sinks = append(sinks, obs.NewJSONL(f))
		}
		if rec, err = obs.New(obs.Options{Sinks: sinks}); err != nil {
			return err
		}
		defer func() {
			if terr := rec.Err(); terr != nil && err == nil {
				err = fmt.Errorf("trace: %w", terr)
				return
			}
			if *trace != "" {
				var kinds []string
				for _, k := range rec.Kinds() {
					kinds = append(kinds, fmt.Sprintf("%s=%d", k, rec.Count(k)))
				}
				fmt.Fprintf(out, "trace: %d events -> %s (%s)\n", rec.Seq(), *trace, strings.Join(kinds, " "))
			}
		}()
	}

	rtOpts := runtime.Options{Seed: cfg.Seed, Recorder: rec, DeepPredict: *deep,
		Shards: *shards, Traces: traces.Options{Kind: tkind}}
	inOpts := ingest.Options{Recorder: rec, Mode: tmode}

	// Restore from the snapshot file when it exists; build fresh otherwise.
	var rt *runtime.Runtime
	var svc *ingest.Service
	startStep := 0
	// admission is the rack each VM was in when the ingest partition was
	// fixed, which is also the rack its reporter stream is keyed by: a VM
	// keeps reporting the same stream wherever it migrates.
	admission := make(map[int]int)
	if *snapshot != "" {
		blob, rerr := os.ReadFile(*snapshot)
		switch {
		case rerr == nil:
			// An older file's sections do not decode as columns; name its
			// version rather than the first field that fails.
			var head struct {
				Runtime *struct{ Version int } `json:"runtime"`
			}
			if json.Unmarshal(blob, &head) == nil && head.Runtime != nil && head.Runtime.Version != runtime.SnapshotVersion {
				return fmt.Errorf("snapshot %s: runtime snapshot version %d not supported (want %d; older files are refused, not migrated)",
					*snapshot, head.Runtime.Version, runtime.SnapshotVersion)
			}
			var st daemonState
			if uerr := json.Unmarshal(blob, &st); uerr != nil {
				return fmt.Errorf("snapshot %s: %w", *snapshot, uerr)
			}
			switch {
			case st.Runtime == nil:
				return fmt.Errorf("snapshot %s: \"runtime\" is missing or null", *snapshot)
			case st.Runtime.Cluster == nil:
				return fmt.Errorf("snapshot %s: \"runtime.cluster\" is missing or null", *snapshot)
			}
			if st.Config != cfg || st.Deep != *deep {
				return fmt.Errorf("snapshot %s was taken with a different configuration; refusing to resume", *snapshot)
			}
			cluster, model, berr := sim.BuildCluster(cfg)
			if berr != nil {
				return berr
			}
			if cerr := cluster.Restore(st.Runtime.Cluster); cerr != nil {
				return fmt.Errorf("snapshot %s: %w", *snapshot, cerr)
			}
			if rt, err = runtime.Restore(cluster, model, rtOpts, st.Runtime); err != nil {
				return fmt.Errorf("snapshot %s: %w", *snapshot, err)
			}
			if svc, err = ingest.FromSnapshot(st.Ingest, inOpts); err != nil {
				return fmt.Errorf("snapshot %s: %w", *snapshot, err)
			}
			startStep = st.Runtime.Step
			for _, sh := range st.Ingest.Shards {
				for _, vm := range sh.VM {
					admission[vm] = sh.Rack
				}
			}
			// Both sections name every VM's admission rack; they must agree
			// on the VMs and the racks, or the reporters would offer for VMs
			// triage does not know.
			rv := st.Runtime.VMs
			if len(admission) != len(rv.ID) {
				return fmt.Errorf("snapshot %s: \"ingest\" covers %d VMs, \"runtime.vms\" %d", *snapshot, len(admission), len(rv.ID))
			}
			for k, id := range rv.ID {
				if rk, ok := admission[id]; !ok || rk != rv.Rack[k] {
					return fmt.Errorf("snapshot %s: \"runtime.vms\" admits VM %d on rack %d, \"ingest\" does not", *snapshot, id, rv.Rack[k])
				}
			}
			fmt.Fprintf(out, "sheriffd: resumed from %s at step %d (no cold fit)\n", *snapshot, startStep)
		case errors.Is(rerr, os.ErrNotExist):
			// fresh start below
		default:
			return rerr
		}
	}
	if rt == nil {
		if rt, err = sim.BuildRuntime(cfg, rtOpts); err != nil {
			return err
		}
		if svc, err = ingest.FromCluster(rt.Cluster, inOpts); err != nil {
			return err
		}
		for _, vm := range rt.Cluster.VMs() {
			admission[vm.ID] = vm.Host().Rack().Index
		}
	}
	defer rt.Close()

	// The metric reporters: one deterministic stream per VM from the
	// runtime's trace generator (so -traces picks the family and surge
	// kinds keep their rack-correlated bursts), replayed to the resume
	// point so a restored daemon sees the same tail of profiles the
	// uninterrupted one would have.
	reporters := traces.NewReporters(rt.TraceGen(), admission, startStep)

	if *listen != "" {
		ln, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			return lerr
		}
		defer ln.Close()
		fmt.Fprintf(out, "sheriffd: streaming events on %s\n", ln.Addr())
		go serveSubscribers(ln, rec)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	writeSnap := func() error {
		rs, serr := rt.Snapshot()
		if serr != nil {
			return serr
		}
		is, serr := svc.Snapshot()
		if serr != nil {
			return serr
		}
		blob, serr := json.Marshal(daemonState{Config: cfg, Deep: *deep, Runtime: rs, Ingest: is})
		if serr != nil {
			return serr
		}
		return replaceFile(*snapshot, blob)
	}

	fmt.Fprintf(out, "sheriffd: %s size %d — %d racks, %d hosts, %d VMs, %d dependency edges\n",
		*topo, *size, len(rt.Cluster.Racks), len(rt.Cluster.Hosts()), len(admission), rt.Cluster.Deps.NumEdges())
	fmt.Fprintln(out, "step  pre-alerts srv-alerts tor-alerts sw-alerts  migr     cost  reroutes  hot  stddev  maxuplink")

	var totalMigr, totalReroutes, totalPre int
	var totalCost float64
loop:
	for i := 0; i < *steps; i++ {
		select {
		case <-sig:
			fmt.Fprintln(out, "sheriffd: signal received, flushing and shutting down")
			break loop
		default:
		}
		updates := reporters.Next()
		if tap != nil {
			tap(startStep+i+1, updates)
		}
		if _, err = svc.OfferBatch(updates); err != nil {
			return err
		}
		svc.ProcessPending()
		pre := svc.Poll()
		totalPre += len(pre)
		s, serr := rt.StepExternal(updates)
		if serr != nil {
			return serr
		}
		totalMigr += s.Migrations
		totalReroutes += s.Reroutes
		totalCost += s.MigrationCost
		fmt.Fprintf(out, "%4d  %10d %10d %10d %9d %5d %8.1f %9d %4d %7.2f %10.2f\n",
			s.Step, len(pre), s.ServerAlerts, s.ToRAlerts, s.SwitchAlerts,
			s.Migrations, s.MigrationCost, s.Reroutes, s.HotSwitches,
			s.WorkloadStdDev, s.MaxUplinkUtil)
		if *check {
			cerr := rt.CheckInvariants()
			if cerr == nil {
				cerr = svc.CheckInvariants()
			}
			if cerr != nil {
				return fmt.Errorf("invariant violated after step %d: %w", s.Step, cerr)
			}
		}
		if *snapshot != "" && *snapEvery > 0 && (i+1)%*snapEvery == 0 {
			if werr := writeSnap(); werr != nil {
				return werr
			}
		}
		if *failStep > 0 && s.Step >= *failStep {
			return fmt.Errorf("injected failure after step %d (testing)", s.Step)
		}
	}
	if *snapshot != "" {
		if werr := writeSnap(); werr != nil {
			return werr
		}
		fmt.Fprintf(out, "snapshot: %s\n", *snapshot)
	}
	st := svc.Stats()
	fmt.Fprintf(out, "totals: %d migrations (cost %.1f), %d flow reroutes, %d pre-alerts\n",
		totalMigr, totalCost, totalReroutes, totalPre)
	fmt.Fprintf(out, "ingest: %d offered %d accepted %d dropped %d processed | latency mean %.1fµs p99 %.1fµs\n",
		st.Offered, st.Accepted, st.Dropped, st.Processed, st.Latency.Mean()*1e6, st.LatencyP99*1e6)
	return nil
}

// replaceFile puts blob at path so that a crash at any point leaves the
// old file or the new one, whole: the bytes are on disk before the rename
// gives them the name. Without the Sync a power loss can leave the name on
// an empty file, which the next start refuses to resume from.
func replaceFile(path string, blob []byte) error {
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// serveSubscribers attaches each TCP client to the live event stream.
// A client that hangs up (or whose writes fail) is detached without
// disturbing the recorder or other subscribers.
func serveSubscribers(ln net.Listener, rec *obs.Recorder) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetWriteBuffer(subscriberSendBuffer) // best effort
		}
		sub, err := subscribeConn(rec, conn)
		if err != nil {
			conn.Close()
			continue
		}
		go func() {
			io.Copy(io.Discard, conn) // block until the client hangs up, or a failed write closes conn
			sub.Close()
			conn.Close()
		}()
	}
}

// subscriberSendBuffer is the kernel send buffer asked for on a subscriber's
// connection: how far a subscriber may fall behind before writes to it start
// to wait. Left to the host it grows to megabytes per connection, and a
// client that stopped reading is found out only once all of that is full.
const subscriberSendBuffer = 64 << 10

// subscriberWriteTimeout is how long one event may take to reach a
// subscriber's socket: ample for a line of JSON, and the longest a client
// that stopped reading can hold up the period loop — once.
const subscriberWriteTimeout = time.Second

// subscribeConn attaches a connection to the live event stream. Events are
// written from inside the recorder's emit path, on the period loop's
// goroutine, so a write must not block for good: each has a deadline, and a
// write that fails — the deadline passing, or anything else — closes the
// connection. The failure is a sink error, on which the recorder detaches
// the subscription at once (Subscription.Err keeps it).
func subscribeConn(rec *obs.Recorder, conn net.Conn) (*obs.Subscription, error) {
	return rec.Subscribe(obs.NewJSONL(deadlineWriter{conn}))
}

type deadlineWriter struct{ conn net.Conn }

func (w deadlineWriter) Write(p []byte) (int, error) {
	err := w.conn.SetWriteDeadline(time.Now().Add(subscriberWriteTimeout))
	n := 0
	if err == nil {
		n, err = w.conn.Write(p)
	}
	if err != nil {
		w.conn.Close()
	}
	return n, err
}
