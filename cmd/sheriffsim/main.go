// Command sheriffsim runs the paper's offline studies: the Sec. VI.B
// migration simulations, Figs. 3–14 and the ablations, the Sec. IV.B
// prediction study and the Sec. VI.A synthetic traces. Each study is a
// mode with its own flags; a flag the selected mode does not read is an
// error. -h lists the modes, and -mode NAME -h that mode's flags.
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
//	sheriffsim -mode fig                    # every figure, Figs. 3–14
//	sheriffsim -mode fig -fig 11 -seed 42   # one figure at another seed
//	sheriffsim -mode fig -ablation swap-size
//	sheriffsim -mode fig -summary           # one line per figure, no data rows
//	sheriffsim -mode predict -series cpu -horizon 9
//	sheriffsim -mode predict -file data.csv # "t,value" rows or one value a line
//	sheriffsim -mode trace -series traffic -days 7 -o traffic.csv
//	sheriffsim -mode trace -series profile -kind surge -hours 12 -vm 3 -rack 1
//
// Surge mode evaluates the burst-extended predictor pool over the regime
// grid (diurnal control, training-job waves, flash crowds, correlated
// rack bursts): each (regime, candidate) cell reports one-step MSE,
// sliding-window win share, and the operator's early-warning scores
// (lead time, precision, recall), then a cluster pass drives correlated
// multi-rack bursts through the sharded step engine. Nothing here is
// timed; what Sheriff costs is measured by bench/ (BENCHMARK.json).
//
// -trace writes a JSONL event stream (see internal/obs); with no explicit
// -mode it implies -mode dist, the message-level protocol whose
// REQUEST/ACK/REJECT/retry decisions the trace captures. Chaos mode runs
// the same protocol under a seeded fault plan (internal/faults): drops,
// duplication, reordering, delay jitter, and named partition windows.
// Every output file is closed (and a trace therefore parseable) even when
// a run fails mid-way.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sheriff/internal/arima"
	"sheriff/internal/experiments"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/predictor"
	"sheriff/internal/sim"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sheriffsim: %v\n", err)
		os.Exit(1)
	}
}

// A mode is one offline study: flags declares the mode's flags on fs and
// returns the study, which runs once fs has parsed the command line.
type mode struct {
	name, help string
	flags      func(fs *flag.FlagSet) study
}

// A study prints to out and opens the files it writes through files.
type study func(out io.Writer, files *outputs) error

var modes = []mode{
	{"balance", "Figs. 9/10: workload spread over balancing rounds", balanceFlags},
	{"compare", "Sheriff against the centralized manager: cost and search space", compareFlags},
	{"sweep", "compare at each of -sizes", sweepFlags},
	{"plan", "k-median destination planning: local search against the optimum", planFlags},
	{"dist", "the Alg. 4 message protocol over a lossy bus", distFlags},
	{"chaos", "the Alg. 4 protocol under a seeded fault plan", chaosFlags},
	{"surge", "the regime × predictor early-warning grid and the cluster pass", surgeFlags},
	{"fig", "Figs. 3–14 and the ablations as text tables", figFlags},
	{"predict", "Sec. IV.B: the candidate pool's rolling forecast errors on a series", predictFlags},
	{"trace", "Sec. VI.A: a synthetic series or profile stream as CSV", traceFlags},
}

// run selects the mode, parses only that mode's flags, and runs it. The
// files the study opened are closed after it returns, also on failure.
func run(args []string, out io.Writer) (err error) {
	m, err := selectMode(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("sheriffsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("mode", m.name, "the study to run")
	st := m.flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(out, m, fs)
			return nil
		}
		if name, ok := strings.CutPrefix(err.Error(), "flag provided but not defined: -"); ok {
			return fmt.Errorf("-mode %s reads no -%s flag", m.name, name)
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var files outputs
	defer func() {
		if cerr := files.close(); err == nil {
			err = cerr
		}
	}()
	return st(out, &files)
}

// selectMode finds the mode before any flag is parsed: the one -mode
// names, else dist when -trace names a file, else balance.
func selectMode(args []string) (mode, error) {
	name := "balance"
	if v, ok := flagValue(args, "mode"); ok {
		name = v
	} else if v, ok := flagValue(args, "trace"); ok && v != "" {
		name = "dist"
	}
	names := make([]string, len(modes))
	for i, m := range modes {
		if m.name == name {
			return m, nil
		}
		names[i] = m.name
	}
	return mode{}, fmt.Errorf("unknown mode %q (want %s)", name, strings.Join(names, ", "))
}

// flagValue returns the value of the last -name (or --name) before any
// "--", spelled -name value or -name=value.
func flagValue(args []string, name string) (value string, found bool) {
	for i := 0; i < len(args) && args[i] != "--"; i++ {
		key, ok := strings.CutPrefix(args[i], "-")
		if !ok {
			continue
		}
		key = strings.TrimPrefix(key, "-")
		if k, v, eq := strings.Cut(key, "="); eq && k == name {
			value, found = v, true
		} else if key == name && i+1 < len(args) {
			value, found = args[i+1], true
			i++
		}
	}
	return value, found
}

// usage lists the modes, then the flags of the selected one.
func usage(out io.Writer, sel mode, fs *flag.FlagSet) {
	fmt.Fprintln(out, "usage: sheriffsim [-mode NAME] [flags]; -mode NAME -h lists that mode's flags")
	fmt.Fprintln(out, "\nmodes:")
	for _, m := range modes {
		fmt.Fprintf(out, "  %-8s %s\n", m.name, m.help)
	}
	fmt.Fprintf(out, "\nflags of -mode %s:\n", sel.name)
	fs.SetOutput(out)
	fs.PrintDefaults()
}

// outputs holds the files a study writes, for run to close.
type outputs []*os.File

// open opens path for writing, creating it; extra is os.O_TRUNC or
// os.O_APPEND.
func (o *outputs) open(path string, extra int) (io.Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|extra, 0o644)
	if err != nil {
		return nil, err
	}
	*o = append(*o, f)
	return f, nil
}

// close closes every file and returns the first error.
func (o *outputs) close() error {
	var first error
	for _, f := range *o {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clusterFlags declares the flags every cluster simulation reads and
// returns the study that opens the -trace recorder, builds the sim.Config
// the flags describe, and hands it to body. The trace line is printed
// after body returns, also when it failed.
func clusterFlags(fs *flag.FlagSet, body func(out io.Writer, cfg sim.Config) error) study {
	var cfg sim.Config
	topo := fs.String("topology", "fat-tree", "fat-tree or bcube")
	fs.IntVar(&cfg.Size, "size", 8, "pods (fat-tree) or switches per level (bcube)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.HostsPerRack, "hosts", 4, "hosts per rack")
	fs.IntVar(&cfg.VMsPerHost, "vms", 4, "VMs per host")
	trace := fs.String("trace", "", "write a JSONL event trace to this file")
	return func(out io.Writer, files *outputs) (err error) {
		switch {
		case cfg.HostsPerRack < 1:
			return fmt.Errorf("-hosts %d is below 1", cfg.HostsPerRack)
		case cfg.VMsPerHost < 1:
			return fmt.Errorf("-vms %d is below 1", cfg.VMsPerHost)
		}
		if *trace != "" {
			f, err := files.open(*trace, os.O_TRUNC)
			if err != nil {
				return err
			}
			rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.NewJSONL(f)}})
			if err != nil {
				return err
			}
			cfg.Migrate.Recorder = rec
			defer func() {
				if terr := rec.Err(); terr != nil {
					if err == nil {
						err = fmt.Errorf("trace: %w", terr)
					}
					return
				}
				fmt.Fprintf(out, "trace: %d events -> %s\n", rec.Seq(), *trace)
			}()
		}
		if cfg.Kind, err = sim.ParseKind(*topo); err != nil {
			return err
		}
		return body(out, cfg)
	}
}

func balanceFlags(fs *flag.FlagSet) study {
	rounds := fs.Int("rounds", 24, "balancing rounds")
	return clusterFlags(fs, func(out io.Writer, cfg sim.Config) error {
		return runBalance(out, cfg, *rounds)
	})
}

func compareFlags(fs *flag.FlagSet) study {
	return clusterFlags(fs, runCompare)
}

func sweepFlags(fs *flag.FlagSet) study {
	sizes := fs.String("sizes", "", "comma-separated sizes (empty = -size)")
	return clusterFlags(fs, func(out io.Writer, cfg sim.Config) error {
		list, err := parseSizes(*sizes, cfg.Size)
		if err != nil {
			return err
		}
		for _, sz := range list {
			cfg.Size = sz
			if err := runCompare(out, cfg); err != nil {
				return err
			}
		}
		return nil
	})
}

func planFlags(fs *flag.FlagSet) study {
	k := fs.Int("k", 0, "destination ToRs to plan (0 = clients/4)")
	p := fs.Int("p", 1, "Alg. 5 swap size")
	exact := fs.Bool("exact", false, "also compute the branch-and-bound optimum")
	return clusterFlags(fs, func(out io.Writer, cfg sim.Config) error {
		switch {
		case *k < 0:
			return fmt.Errorf("-k %d is negative (0 = clients/4)", *k)
		case *p < 1:
			return fmt.Errorf("-p %d is below 1", *p)
		}
		return runPlan(out, cfg, *k, *p, *exact)
	})
}

func distFlags(fs *flag.FlagSet) study {
	loss := fs.Float64("loss", 0.05, "bus message loss rate")
	return clusterFlags(fs, func(out io.Writer, cfg sim.Config) error {
		return runProtocol(out, "dist", cfg, faults.Plan{Seed: cfg.Seed, Drop: *loss})
	})
}

func chaosFlags(fs *flag.FlagSet) study {
	var plan faults.Plan
	fs.Float64Var(&plan.Drop, "drop", 0.2, "per-message drop probability")
	fs.Float64Var(&plan.DupRate, "dup", 0.1, "per-message duplication probability")
	fs.Float64Var(&plan.ReorderRate, "reorder", 0.2, "per-batch delivery reorder probability")
	fs.IntVar(&plan.Delay, "delay", 0, "fixed extra delivery delay in rounds")
	fs.IntVar(&plan.Jitter, "jitter", 1, "uniform extra delay bound in rounds")
	partition := fs.String("partition", "", "partition windows as start:rounds:node,node[;...]")
	return clusterFlags(fs, func(out io.Writer, cfg sim.Config) error {
		windows, err := parsePartitions(*partition)
		if err != nil {
			return err
		}
		plan.Seed, plan.Partitions = cfg.Seed, windows
		return runProtocol(out, "chaos", cfg, plan)
	})
}

func surgeFlags(fs *flag.FlagSet) study {
	var cfg experiments.SurgeConfig
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&cfg.Hours, "hours", 12, "trace hours per regime; the first half trains the pool")
	fs.IntVar(&cfg.Window, "window", 0, "selector sliding-MSE window (0 = predictor default)")
	fs.IntVar(&cfg.MaxLead, "max-lead", 10, "alert horizon in steps")
	fs.Float64Var(&cfg.Intensity, "intensity", 1.5, "surge amplitude scale")
	fs.IntVar(&cfg.ClusterRacks, "cluster-racks", 0, "racks in the correlated-burst cluster pass (0 = 8)")
	fs.IntVar(&cfg.ClusterSteps, "cluster-steps", 0, "steps in the cluster pass (0 = 120)")
	fs.BoolVar(&cfg.SkipCluster, "no-cluster", false, "skip the cluster pass")
	jsonPath := fs.String("json", "", "append the results as JSON lines to this file")
	return func(out io.Writer, files *outputs) error {
		return runSurge(out, files, cfg, *jsonPath)
	}
}

func figFlags(fs *flag.FlagSet) study {
	names := make([]string, 0, len(experiments.Ablations))
	for name := range experiments.Ablations {
		names = append(names, name)
	}
	sort.Strings(names)
	ablations := strings.Join(names, ", ")
	fig := fs.String("fig", "", "figure to regenerate (3..14); empty = all")
	ablation := fs.String("ablation", "", "ablation to run ("+ablations+")")
	seed := fs.Int64("seed", 20150707, "deterministic seed")
	summary := fs.Bool("summary", false, "print only headers and notes, not data rows")
	return func(out io.Writer, _ *outputs) error {
		if *ablation != "" {
			gen, ok := experiments.Ablations[*ablation]
			if !ok {
				return fmt.Errorf("unknown ablation %q (want one of %s)", *ablation, ablations)
			}
			return emitTable(out, gen, *seed, *summary)
		}
		ids := experiments.FigureIDs()
		if *fig != "" {
			ids = []string{*fig}
		}
		for _, id := range ids {
			gen, ok := experiments.Registry[id]
			if !ok {
				return fmt.Errorf("unknown figure %q", id)
			}
			if err := emitTable(out, gen, *seed, *summary); err != nil {
				return err
			}
		}
		return nil
	}
}

func predictFlags(fs *flag.FlagSet) study {
	name := fs.String("series", "traffic", "synthetic series: traffic, cpu, io")
	file := fs.String("file", "", `read the series from this CSV file instead ("t,value" rows or one value a line)`)
	split := fs.Float64("split", 0.7, "train fraction, in (0,1)")
	seed := fs.Int64("seed", 1, "generator / trainer seed")
	horizon := fs.Int("horizon", 5, "closing k-step-ahead forecast horizon, at least 1")
	return func(out io.Writer, _ *outputs) error {
		if !(*split > 0 && *split < 1) {
			return fmt.Errorf("-split must be in (0,1), got %v", *split)
		}
		if *horizon < 1 {
			return fmt.Errorf("-horizon must be at least 1, got %d", *horizon)
		}
		var s *timeseries.Series
		if *file != "" {
			f, err := os.Open(*file)
			if err != nil {
				return err
			}
			defer f.Close()
			if s, err = traces.ReadCSV(f); err != nil {
				return fmt.Errorf("%s: %w", *file, err)
			}
		} else {
			var ok bool
			if s, _, ok = synthetic(*name, 7, 64, 24, *seed); !ok {
				return fmt.Errorf("unknown series %q (want traffic, cpu, io)", *name)
			}
		}
		return runPredict(out, s, *split, *seed, *horizon)
	}
}

func traceFlags(fs *flag.FlagSet) study {
	name := fs.String("series", "traffic", "traffic, cpu, io, or profile")
	days := fs.Int("days", 7, "series length in days (traffic)")
	hours := fs.Int("hours", 24, "series length in hours (cpu, io, profile)")
	perDay := fs.Int("per-day", 64, "samples per day (traffic)")
	seed := fs.Int64("seed", 1, "generator seed")
	kind := fs.String("kind", "", "profile generator family: diurnal, lite, or surge (profile)")
	vmID := fs.Int("vm", 0, "VM stream to generate (profile)")
	rack := fs.Int("rack", 0, "rack of the VM stream (profile; surge kinds correlate bursts by rack)")
	path := fs.String("o", "-", "output file; - for stdout")
	return func(out io.Writer, files *outputs) error {
		for _, l := range []struct {
			flag string
			n    int
		}{{"days", *days}, {"hours", *hours}, {"per-day", *perDay}} {
			if l.n <= 0 {
				return fmt.Errorf("-%s must be positive, got %d", l.flag, l.n)
			}
		}
		w := out
		if *path != "-" {
			var err error
			if w, err = files.open(*path, os.O_TRUNC); err != nil {
				return err
			}
		}
		if *name == "profile" {
			k, err := traces.ParseKind(*kind)
			if err != nil {
				return err
			}
			gen, err := traces.New(traces.Options{Kind: k, Seed: *seed, Hours: *hours})
			if err != nil {
				return err
			}
			src := gen.Source(*vmID, *rack)
			profiles := make([]traces.Profile, *hours*traces.SamplesPerHour)
			for i := range profiles {
				profiles[i] = src.Next()
			}
			return traces.WriteProfileCSV(w, profiles)
		}
		s, column, ok := synthetic(*name, *days, *perDay, *hours, *seed)
		if !ok {
			return fmt.Errorf("unknown series %q (want traffic, cpu, io, profile)", *name)
		}
		return traces.WriteCSV(w, column, s)
	}
}

// synthetic generates the named synthetic series — days×perDay samples of
// weekly switch traffic, or hours of CPU or disk I/O — and names its CSV
// column; ok is false for an unknown name.
func synthetic(name string, days, perDay, hours int, seed int64) (s *timeseries.Series, column string, ok bool) {
	switch name {
	case "traffic":
		return traces.WeeklyTraffic(traces.TrafficConfig{Days: days, PerDay: perDay, Seed: seed}), "traffic_mb", true
	case "cpu":
		return traces.CPU(traces.CPUConfig{Hours: hours, Seed: seed}), "cpu_pct", true
	case "io":
		return traces.DiskIO(traces.DiskIOConfig{Hours: hours, Seed: seed}), "io_mbps", true
	}
	return nil, "", false
}

// runPredict fits the extended candidate pool to the train split, prints
// each candidate's and the dynamic selection's rolling-forecast errors over
// the test split, then a k-step-ahead forecast from the whole series.
func runPredict(out io.Writer, series *timeseries.Series, split float64, seed int64, horizon int) error {
	fmt.Fprintln(out, traces.Describe("series", series))
	train, test := series.Split(split)
	if test.Len() == 0 {
		return errors.New("empty test split")
	}

	// Detect a dominant season and hand it to the extended pool, which
	// adds Holt and Holt–Winters beside the ARIMA/NARNET candidates.
	period := timeseries.DetectPeriod(train, 4, train.Len()/3)
	if period > 0 {
		fmt.Fprintf(out, "detected season length: %d samples\n", period)
	}
	pool, err := predictor.Pool(train, predictor.Options{Pool: predictor.PoolExtended, Period: period, Seed: seed})
	if err != nil {
		return fmt.Errorf("building pool: %w", err)
	}
	fmt.Fprintf(out, "candidates: ")
	for i, c := range pool {
		if i > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprint(out, c.Name)
	}
	fmt.Fprintln(out)

	for _, c := range pool {
		pred, err := predictor.Rolling(c.F, train, test)
		if err != nil {
			fmt.Fprintf(out, "%-16s rolling forecast failed\n", c.Name)
			continue
		}
		mse, _ := timeseries.MSE(test.Raw(), pred)
		mae, _ := timeseries.MAE(test.Raw(), pred)
		fmt.Fprintf(out, "%-16s test MSE %10.4f  MAE %8.4f\n", c.Name, mse, mae)
	}

	sel, err := predictor.NewSelector(train, predictor.Config{Window: 15}, pool...)
	if err != nil {
		return err
	}
	combined, shares, err := sel.Run(test)
	if err != nil {
		return fmt.Errorf("selector: %w", err)
	}
	mse, _ := timeseries.MSE(test.Raw(), combined)
	fmt.Fprintf(out, "%-16s test MSE %10.4f  selection shares %v\n", "combined", mse, shares)

	best, err := arima.AutoFit(series, arima.DefaultSearchSpace)
	if err != nil {
		return fmt.Errorf("closing forecast: %w", err)
	}
	fc, err := best.ForecastFrom(nil, series, horizon)
	if err != nil {
		return fmt.Errorf("closing forecast: %w", err)
	}
	fmt.Fprintf(out, "%s %d-step-ahead: %v\n", best.Order, horizon, round2(fc))
	return nil
}

func round2(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(int(x*100+0.5)) / 100
	}
	return out
}

// emitTable prints one figure or ablation table, or with summary only its
// header and notes.
func emitTable(out io.Writer, gen func(int64) (*experiments.Table, error), seed int64, summary bool) error {
	tab, err := gen(seed)
	if err != nil {
		return err
	}
	if summary {
		fmt.Fprintf(out, "%s — %s (%d rows)\n", tab.Name, tab.Title, len(tab.Rows))
		for _, n := range tab.Notes {
			fmt.Fprintf(out, "  # %s\n", n)
		}
		return nil
	}
	if _, err := tab.WriteTo(out); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	fmt.Fprintln(out)
	return nil
}

// runSurge prints the regime × candidate early-warning grid (winners
// starred) and the correlated-burst cluster pass; with -json each cell is
// appended as one JSON line, then one summary line with the winners map
// and cluster stats. Every figure is seed-deterministic.
func runSurge(out io.Writer, files *outputs, cfg experiments.SurgeConfig, jsonPath string) error {
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
	f, err := files.open(jsonPath, os.O_APPEND)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, c := range res.Cells {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Config  experiments.SurgeConfig        `json:"config"`
		Winners map[string]string              `json:"winners"`
		Cluster *experiments.SurgeClusterStats `json:"cluster,omitempty"`
	}{res.Config, res.Winners, res.Cluster})
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

// runProtocol drives the Alg. 4 message protocol over a bus the plan
// perturbs, on pod-level hotspots that force cross-rack placement: every
// REQUEST, ACK, REJECT, and timeout retry lands in the trace with its
// round number. Mode dist is a lossy bus with the protocol's backoff
// seeded at 0; mode chaos is the whole fault vocabulary, whose drops,
// duplicates, reorderings, and partition cuts exercise the retry,
// suppression, and fallback ladder, with the backoff seeded by the plan.
// Each mode prints its own header and summary line; in chaos mode
// "unplaced 0" is the resilience criterion.
func runProtocol(out io.Writer, mode string, cfg sim.Config, plan faults.Plan) error {
	s, err := sim.Build(cfg)
	if err != nil {
		return err
	}
	n := s.PopulateHotPods(0.5, 0.85, 0.35)
	fmt.Fprintf(out, "%s size %d: %d racks, %d hosts, %d VMs", cfg.Kind, cfg.Size, len(s.Cluster.Racks), len(s.Cluster.Hosts()), n)
	opts := migrate.DistOptions{Recorder: cfg.Migrate.Recorder}
	if mode == "dist" {
		fmt.Fprintf(out, ", loss %.3f\n", plan.Drop)
	} else {
		opts.Seed = plan.Seed
		fmt.Fprintf(out, " | plan: drop %.2f dup %.2f reorder %.2f delay %d+%d partitions %d\n",
			plan.Drop, plan.DupRate, plan.ReorderRate, plan.Delay, plan.Jitter, len(plan.Partitions))
	}
	res, err := s.RunChaos(plan, opts)
	if err != nil {
		return err
	}
	if mode == "dist" {
		fmt.Fprintf(out, "dist: %d migrations cost %.1f | rejected %d retransmits %d unplaced %d in %d rounds (space %d)\n",
			len(res.Migrations), res.TotalCost, res.Rejected, res.Retransmits, len(res.Unplaced), res.Rounds, res.SearchSpace)
	} else {
		fmt.Fprintf(out, "chaos: %d migrations cost %.1f | rejected %d retransmits %d suppressed %d fallbacks %d unplaced %d in %d rounds\n",
			len(res.Migrations), res.TotalCost, res.Rejected, res.Retransmits,
			res.Suppressed, res.Fallbacks, len(res.Unplaced), res.Rounds)
	}
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
