// Command sheriffsim runs the Sec. VI.B migration simulations.
//
// Usage:
//
//	sheriffsim -mode balance -topology fat-tree -size 8 -rounds 24
//	sheriffsim -mode compare -topology bcube -size 12
//	sheriffsim -mode sweep -topology fat-tree -sizes 8,16,24,32
//	sheriffsim -mode plan -topology fat-tree -size 48 -k 32
//	sheriffsim -mode plan -size 16 -exact   # adds the branch-and-bound OPT
//	sheriffsim -mode dist -size 8 -loss 0.05 -trace out.jsonl
//	sheriffsim -mode chaos -seed 42 -drop 0.2 -dup 0.25 -partition 1:3:0 -trace chaos.jsonl
//	sheriffsim -mode surge -seed 1 -json surge.jsonl
//	sheriffsim -mode distill -seed 1
//
// Surge mode evaluates the burst-extended predictor pool over the regime
// grid (diurnal control, training-job waves, flash crowds, correlated
// rack bursts): each (regime, candidate) cell reports one-step MSE,
// sliding-window win share, and the operator's early-warning scores
// (lead time, precision, recall), then a cluster pass drives correlated
// multi-rack bursts through the sharded step engine.
//
// Distill mode distills the deep pool into the fixed-point triage filter
// and grades it: per-regime alert precision/recall/lead-time of the
// quantized filter against the pool's alerts. Nothing here is timed; what
// Sheriff costs is measured by bench/ (BENCHMARK.json).
//
// -trace writes a JSONL event stream (see internal/obs); with no explicit
// -mode it implies -mode dist, the message-level protocol whose
// REQUEST/ACK/REJECT/retry decisions the trace captures. Chaos mode runs
// the same protocol under a seeded fault plan (internal/faults): drops,
// duplication, reordering, delay jitter, and named partition windows.
// The trace file is closed (and therefore parseable) even when a run
// fails mid-way.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sheriff/internal/comm"
	"sheriff/internal/experiments"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sheriffsim: %v\n", err)
		os.Exit(1)
	}
}

// run carries the whole command behind a returned error so the deferred
// trace close always fires — a failed simulation still leaves a closed,
// parseable JSONL trace.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sheriffsim", flag.ContinueOnError)
	mode := fs.String("mode", "balance", "balance, compare, sweep, plan, dist, chaos, surge, or distill")
	topo := fs.String("topology", "fat-tree", "fat-tree or bcube")
	size := fs.Int("size", 8, "pods (fat-tree) or switches per level (bcube)")
	sizes := fs.String("sizes", "", "comma-separated size sweep (mode=sweep)")
	rounds := fs.Int("rounds", 24, "balancing rounds (mode=balance)")
	seed := fs.Int64("seed", 1, "simulation seed")
	hostsPerRack := fs.Int("hosts", 4, "hosts per rack")
	vmsPerHost := fs.Int("vms", 4, "VMs per host")
	k := fs.Int("k", 0, "destination ToRs to plan (mode=plan; 0 = clients/4)")
	p := fs.Int("p", 1, "Alg. 5 swap size (mode=plan)")
	exact := fs.Bool("exact", false, "also compute the branch-and-bound optimum (mode=plan)")
	loss := fs.Float64("loss", 0.05, "bus message loss rate (mode=dist)")
	trace := fs.String("trace", "", "write a JSONL event trace to this file (implies -mode dist unless -mode is set)")
	drop := fs.Float64("drop", 0.2, "fault plan: per-message drop probability (mode=chaos)")
	dup := fs.Float64("dup", 0.1, "fault plan: per-message duplication probability (mode=chaos)")
	reorder := fs.Float64("reorder", 0.2, "fault plan: per-batch delivery reorder probability (mode=chaos)")
	delay := fs.Int("delay", 0, "fault plan: fixed extra delivery delay in rounds (mode=chaos)")
	jitter := fs.Int("jitter", 1, "fault plan: uniform extra delay bound in rounds (mode=chaos)")
	partition := fs.String("partition", "", "fault plan: partition windows as start:rounds:node,node[;...] (mode=chaos)")
	jsonOut := fs.String("json", "", "append results as JSON lines to this file (mode=surge)")
	hours := fs.Int("hours", 12, "trace hours per surge regime; first half trains the pool (mode=surge, distill)")
	window := fs.Int("window", 0, "selector sliding-MSE window (mode=surge, distill; 0 = predictor default)")
	maxLead := fs.Int("max-lead", 10, "alert horizon in steps (mode=surge, distill)")
	intensity := fs.Float64("intensity", 1.5, "surge amplitude scale (mode=surge, distill)")
	tolerance := fs.Int("tolerance", 0, "alert-matching window in steps vs the pool's alerts (mode=distill; 0 = 3)")
	clusterRacks := fs.Int("cluster-racks", 0, "racks in the correlated-burst cluster pass (mode=surge; 0 = 8)")
	clusterSteps := fs.Int("cluster-steps", 0, "steps in the cluster pass (mode=surge; 0 = 120)")
	noCluster := fs.Bool("no-cluster", false, "skip the cluster pass (mode=surge)")
	if perr := fs.Parse(args); perr != nil {
		if errors.Is(perr, flag.ErrHelp) {
			return nil
		}
		return perr
	}

	modeSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "mode" {
			modeSet = true
		}
	})
	if *trace != "" && !modeSet {
		*mode = "dist"
	}

	var rec *obs.Recorder
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
		if rec, err = obs.New(obs.Options{Sinks: []obs.Sink{obs.NewJSONL(f)}}); err != nil {
			return err
		}
		defer func() {
			if terr := rec.Err(); terr != nil && err == nil {
				err = fmt.Errorf("trace: %w", terr)
				return
			}
			fmt.Fprintf(out, "trace: %d events -> %s\n", rec.Seq(), *trace)
		}()
	}

	kind, err := sim.ParseKind(*topo)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Kind:         kind,
		Size:         *size,
		Seed:         *seed,
		HostsPerRack: *hostsPerRack,
		VMsPerHost:   *vmsPerHost,
		Migrate:      migrate.Params{Recorder: rec},
	}

	switch *mode {
	case "balance":
		return runBalance(out, cfg, *rounds)
	case "compare":
		return runCompare(out, cfg)
	case "sweep":
		list, err := parseSizes(*sizes, *size)
		if err != nil {
			return err
		}
		for _, sz := range list {
			c := cfg
			c.Size = sz
			if err := runCompare(out, c); err != nil {
				return err
			}
		}
		return nil
	case "plan":
		return runPlan(out, cfg, *k, *p, *exact)
	case "dist":
		return runDist(out, cfg, *loss, rec)
	case "chaos":
		windows, err := parsePartitions(*partition)
		if err != nil {
			return err
		}
		plan := faults.Plan{
			Seed:        *seed,
			Drop:        *drop,
			DupRate:     *dup,
			ReorderRate: *reorder,
			Delay:       *delay,
			Jitter:      *jitter,
			Partitions:  windows,
		}
		return runChaos(out, cfg, plan, rec)
	case "surge":
		return runSurge(out, experiments.SurgeConfig{
			Seed:         *seed,
			Hours:        *hours,
			Window:       *window,
			MaxLead:      *maxLead,
			Intensity:    *intensity,
			ClusterRacks: *clusterRacks,
			ClusterSteps: *clusterSteps,
			SkipCluster:  *noCluster,
		}, *jsonOut)
	case "distill":
		return runDistill(out, experiments.DistillConfig{
			Seed:      *seed,
			Hours:     *hours,
			Window:    *window,
			MaxLead:   *maxLead,
			Intensity: *intensity,
			Tolerance: *tolerance,
		})
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// runSurge prints the regime × candidate early-warning grid (winners
// starred) and the correlated-burst cluster pass; with -json each cell is
// appended as one JSON line, then one summary line with the winners map
// and cluster stats. Every figure is seed-deterministic.
func runSurge(out io.Writer, cfg experiments.SurgeConfig, jsonPath string) error {
	res, err := experiments.RunSurge(cfg)
	if err != nil {
		return err
	}
	for _, c := range res.Cells {
		mark := " "
		if c.Winner {
			mark = "*"
		}
		fmt.Fprintf(out, "surge %-12s %-10s%s mse %9.6f win %4.2f | lead %5.2f prec %4.2f rec %4.2f (episodes %d alerts %d)\n",
			c.Regime, c.Candidate, mark, c.MSE, c.WinShare,
			c.LeadTime, c.Precision, c.Recall, c.Episodes, c.Alerts)
	}
	for _, reg := range []string{"diurnal", "train-wave", "flash-crowd", "rack-burst"} {
		if w, ok := res.Winners[reg]; ok {
			fmt.Fprintf(out, "surge winner %-12s -> %s\n", reg, w)
		}
	}
	if cl := res.Cluster; cl != nil {
		fmt.Fprintf(out, "surge cluster: %d racks %d VMs %d steps (%d in surge) | alerts %d (%d surge / %d calm) alignment %.2f lift %.2f | migrations %d\n",
			cl.Racks, cl.VMs, cl.Steps, cl.SurgeSteps,
			cl.ServerAlerts, cl.SurgeAlerts, cl.CalmAlerts, cl.Alignment, cl.AlertLift, cl.Migrations)
	}
	if jsonPath == "" {
		return nil
	}
	f, err := os.OpenFile(jsonPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, c := range res.Cells {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	summary := struct {
		Config  experiments.SurgeConfig        `json:"config"`
		Winners map[string]string              `json:"winners"`
		Cluster *experiments.SurgeClusterStats `json:"cluster,omitempty"`
	}{res.Config, res.Winners, res.Cluster}
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDistill distills the fixed-point triage filter from the deep pool
// and prints the fit and its per-regime fidelity rows — a pure function of
// the flags, so two runs print the same bytes.
func runDistill(out io.Writer, cfg experiments.DistillConfig) error {
	d, err := experiments.DistillQuant(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ingest distilled: alpha %d/%d beta %d/%d (α %.3f β %.3f) lead %d | fit score %.2f/%d\n",
		d.Coeffs.AlphaNum, int64(1)<<d.Coeffs.Shift, d.Coeffs.BetaNum, int64(1)<<d.Coeffs.Shift,
		d.Coeffs.Alpha(), d.Coeffs.Beta(), d.Coeffs.Lead, d.Score, len(d.Regimes))
	for _, reg := range d.Regimes {
		fmt.Fprintf(out, "ingest %-12s threshold %.3f alert-at %.3f | pool %3d quant %3d matched %3d | prec %4.2f rec %4.2f lead %5.2f (pool %5.2f)\n",
			reg.Regime, reg.Threshold, reg.AlertAt,
			reg.PoolAlerts, reg.QuantAlerts, reg.Matched,
			reg.Precision, reg.Recall, reg.MeanLead, reg.PoolLead)
	}
	return nil
}

// runChaos is runDist under a seeded fault plan: the injected drops,
// duplicates, reorderings, and partition cuts exercise the protocol's
// retry/suppression/fallback ladder, and the summary line reports how far
// down the ladder the run went. "unplaced 0" is the resilience criterion.
func runChaos(out io.Writer, cfg sim.Config, plan faults.Plan, rec *obs.Recorder) error {
	s, err := sim.Build(cfg)
	if err != nil {
		return err
	}
	n := s.PopulateHotPods(0.5, 0.85, 0.35)
	fmt.Fprintf(out, "%s size %d: %d racks, %d hosts, %d VMs | plan: drop %.2f dup %.2f reorder %.2f delay %d+%d partitions %d\n",
		cfg.Kind, cfg.Size, len(s.Cluster.Racks), len(s.Cluster.Hosts()), n,
		plan.Drop, plan.DupRate, plan.ReorderRate, plan.Delay, plan.Jitter, len(plan.Partitions))
	res, err := s.RunChaos(plan, migrate.DistOptions{Recorder: rec, Seed: plan.Seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: %d migrations cost %.1f | rejected %d retransmits %d suppressed %d fallbacks %d unplaced %d in %d rounds\n",
		len(res.Migrations), res.TotalCost, res.Rejected, res.Retransmits,
		res.Suppressed, res.Fallbacks, len(res.Unplaced), res.Rounds)
	return nil
}

// parsePartitions decodes the -partition spec: semicolon-separated
// windows, each start:rounds:node,node,... — e.g. "1:3:0,1;6:2:4".
func parsePartitions(spec string) ([]faults.Partition, error) {
	if spec == "" {
		return nil, nil
	}
	var out []faults.Partition
	for i, win := range strings.Split(spec, ";") {
		parts := strings.Split(win, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad partition %q (want start:rounds:node,node,...)", win)
		}
		start, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("bad partition start %q: %w", parts[0], err)
		}
		rounds, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("bad partition rounds %q: %w", parts[1], err)
		}
		w := faults.Partition{Name: fmt.Sprintf("partition-%d", i), Start: start, Rounds: rounds}
		for _, n := range strings.Split(parts[2], ",") {
			node, err := strconv.Atoi(strings.TrimSpace(n))
			if err != nil {
				return nil, fmt.Errorf("bad partition node %q: %w", n, err)
			}
			w.Nodes = append(w.Nodes, node)
		}
		out = append(out, w)
	}
	return out, nil
}

// runDist drives the Alg. 4 message protocol: pod-level hotspots force
// cross-rack placement, the lossy bus forces retries, and every REQUEST,
// ACK, REJECT, and timeout retry lands in the trace with its round number.
func runDist(out io.Writer, cfg sim.Config, loss float64, rec *obs.Recorder) error {
	s, err := sim.Build(cfg)
	if err != nil {
		return err
	}
	n := s.PopulateHotPods(0.5, 0.85, 0.35)
	fmt.Fprintf(out, "%s size %d: %d racks, %d hosts, %d VMs, loss %.3f\n",
		cfg.Kind, cfg.Size, len(s.Cluster.Racks), len(s.Cluster.Hosts()), n, loss)
	res, err := s.RunDistributed(
		comm.Options{LossRate: loss, Seed: cfg.Seed, Recorder: rec},
		migrate.DistOptions{Recorder: rec},
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dist: %d migrations cost %.1f | rejected %d retransmits %d unplaced %d in %d rounds (space %d)\n",
		len(res.Migrations), res.TotalCost, res.Rejected, res.Retransmits, len(res.Unplaced), res.Rounds, res.SearchSpace)
	return nil
}

func runBalance(out io.Writer, cfg sim.Config, rounds int) error {
	s, err := sim.Build(cfg)
	if err != nil {
		return err
	}
	n := s.PopulateSkewed(0.5)
	fmt.Fprintf(out, "%s size %d: %d racks, %d hosts, %d VMs\n",
		cfg.Kind, cfg.Size, len(s.Cluster.Racks), len(s.Cluster.Hosts()), n)
	series, err := s.RunBalancing(rounds, 0.05)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "round  workload-stddev(%)")
	for i, sd := range series {
		fmt.Fprintf(out, "%5d  %8.3f\n", i, sd)
	}
	fmt.Fprintf(out, "reduction: %.1f%% -> %.1f%% over %d rounds\n",
		series[0], series[len(series)-1], rounds)
	return nil
}

func runCompare(out io.Writer, cfg sim.Config) error {
	res, err := sim.Compare(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s size %-3d racks %-5d VMs %-6d alerted %-4d | sheriff cost %10.1f space %8d | central cost %10.1f space %8d\n",
		cfg.Kind, cfg.Size, res.Racks, res.VMs, res.Alerted,
		res.SheriffCost, res.SheriffSpace, res.CentralCost, res.CentralSpace)
	return nil
}

func runPlan(out io.Writer, cfg sim.Config, k, p int, exact bool) error {
	res, err := sim.ComparePlanning(cfg, k, p, exact)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s size %-3d racks %-5d clients %-4d k %-4d | local-search cost %10.1f swaps %4d in %v",
		cfg.Kind, cfg.Size, res.Racks, res.Clients, res.K, res.LocalCost, res.LocalSwaps, res.LocalTime.Round(time.Microsecond))
	if res.HasExact {
		fmt.Fprintf(out, " | optimal cost %10.1f in %v (ratio %.4f)",
			res.ExactCost, res.ExactTime.Round(time.Microsecond), res.Ratio())
	}
	fmt.Fprintln(out)
	return nil
}

func parseSizes(csv string, fallback int) ([]int, error) {
	if csv == "" {
		return []int{fallback}, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
