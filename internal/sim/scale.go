package sim

import (
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/runtime"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// ScaleConfig sizes one hyperscale step-engine run: a leaf–spine fabric
// of Racks leaves, HostsPerRack×VMsPerHost VMs per rack, driven Steps
// collection periods through the step engine. Zero fields take defaults
// chosen for the scale harness, not the paper experiments.
type ScaleConfig struct {
	Racks        int   `json:"racks"`
	Spines       int   `json:"spines,omitempty"` // 0 = topology default
	HostsPerRack int   `json:"hosts_per_rack"`   // default 2
	VMsPerHost   int   `json:"vms_per_host"`     // default 4
	Steps        int   `json:"steps"`            // default 10
	Shards       int   `json:"shards"`           // 0 = GOMAXPROCS
	Seed         int64 `json:"seed"`
	// DependencyProb seeds the dependency graph (and with it the flow
	// plane). Default 0: the hyperscale runs exercise the predict plane;
	// set it (with Threshold < 1) to light up flows and migrations too.
	DependencyProb float64 `json:"dependency_prob,omitempty"`
	// Threshold is applied to all four alert components (default 0.9).
	// A value > 1 makes server alerts unreachable — the alert-free regime
	// that isolates pure step-engine throughput.
	Threshold    float64 `json:"threshold"`
	HistoryLimit int     `json:"history_limit"` // default 64
	// TraceKind selects the trace-generator family ("diurnal", "lite",
	// "surge", "surge-lite"; "" = diurnal) — see traces.ParseKind.
	TraceKind string `json:"trace_kind,omitempty"`
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.HostsPerRack <= 0 {
		c.HostsPerRack = 2
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 4
	}
	if c.Steps <= 0 {
		c.Steps = 10
	}
	if c.Threshold == 0 {
		c.Threshold = 0.9
	}
	if c.HistoryLimit == 0 {
		c.HistoryLimit = 64
	}
	return c
}

// ScaleResult is one scaling-curve point: wall-clock, allocation, and
// memory footprint of a ScaleConfig run.
type ScaleResult struct {
	Config    ScaleConfig `json:"config"`
	Racks     int         `json:"racks"`
	Hosts     int         `json:"hosts"`
	VMs       int         `json:"vms"`
	Steps     int         `json:"steps"`
	Shards    int         `json:"shards"`
	HostCores int         `json:"host_cores"`

	BuildSeconds    float64 `json:"build_seconds"`
	TotalSeconds    float64 `json:"total_seconds"` // stepping only
	MeanStepSeconds float64 `json:"mean_step_seconds"`
	MaxStepSeconds  float64 `json:"max_step_seconds"`
	AllocsPerStep   float64 `json:"allocs_per_step"` // heap objects
	BytesPerStep    float64 `json:"bytes_per_step"`
	PeakRSSMB       float64 `json:"peak_rss_mb"` // VmHWM; 0 if unreadable

	ServerAlerts int     `json:"server_alerts"`
	ToRAlerts    int     `json:"tor_alerts"`
	Migrations   int     `json:"migrations"`
	PredictSkew  float64 `json:"predict_skew,omitempty"` // mean shard load skew
}

// RunScale builds and drives one scale scenario. The cost model is
// deferred (no eager all-racks Dijkstra tables) so an alert-free run
// never pays for them.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Racks < 1 {
		return nil, fmt.Errorf("sim: scale run needs at least 1 rack, got %d", cfg.Racks)
	}
	buildStart := time.Now()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: cfg.Racks, Spines: cfg.Spines})
	if err != nil {
		return nil, err
	}
	// Host capacity follows the requested VM density: VM capacities are
	// drawn from [5, 20], so 20·VMsPerHost always fits the full quota.
	// The floor of 100 keeps low-density runs on the paper's host size.
	hostCap := 100.0
	if c := 20 * float64(cfg.VMsPerHost); c > hostCap {
		hostCap = c
	}
	cluster, err := dcn.NewCluster(ls.Graph, dcn.Config{
		HostsPerRack: cfg.HostsPerRack,
		HostCapacity: hostCap,
		ToRCapacity:  hostCap * float64(cfg.HostsPerRack),
	})
	if err != nil {
		return nil, err
	}
	cluster.Populate(dcn.PopulateOptions{
		VMsPerHost:              cfg.VMsPerHost,
		MinCapacity:             5,
		MaxCapacity:             20,
		DependencyProb:          cfg.DependencyProb,
		CrossRackDependencyProb: cfg.DependencyProb,
		Seed:                    cfg.Seed,
	})
	model, err := cost.NewDeferred(cluster, cost.PaperParams())
	if err != nil {
		return nil, err
	}
	kind, err := traces.ParseKind(cfg.TraceKind)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	th := cfg.Threshold
	rt, err := runtime.New(cluster, model, runtime.Options{
		Seed:         cfg.Seed,
		Shards:       cfg.Shards,
		HistoryLimit: cfg.HistoryLimit,
		Traces:       traces.Options{Kind: kind},
		Thresholds:   alert.Thresholds{CPU: th, Mem: th, IO: th, TRF: th},
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	res := &ScaleResult{
		Config:       cfg,
		Racks:        cfg.Racks,
		Hosts:        len(cluster.Hosts()),
		VMs:          len(cluster.VMs()),
		Steps:        cfg.Steps,
		Shards:       cfg.Shards,
		HostCores:    goruntime.NumCPU(),
		BuildSeconds: time.Since(buildStart).Seconds(),
	}

	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	runStart := time.Now()
	for i := 0; i < cfg.Steps; i++ {
		stepStart := time.Now()
		stats, err := rt.Step()
		if err != nil {
			return nil, fmt.Errorf("sim: scale step %d: %w", i, err)
		}
		d := time.Since(stepStart).Seconds()
		if d > res.MaxStepSeconds {
			res.MaxStepSeconds = d
		}
		res.ServerAlerts += stats.ServerAlerts
		res.ToRAlerts += stats.ToRAlerts
		res.Migrations += stats.Migrations
	}
	res.TotalSeconds = time.Since(runStart).Seconds()
	goruntime.ReadMemStats(&after)
	res.MeanStepSeconds = res.TotalSeconds / float64(cfg.Steps)
	res.AllocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(cfg.Steps)
	res.BytesPerStep = float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Steps)
	res.PeakRSSMB = peakRSSMB()
	if sum, ok := rt.PhaseSummaries()["predict_skew"]; ok && sum.Count() > 0 {
		res.PredictSkew = sum.Mean()
	}
	return res, nil
}

// peakRSSMB reads the process high-water resident set size from
// /proc/self/status (VmHWM). Returns 0 where procfs is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
