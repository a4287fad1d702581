// The regime × predictor grid behind `sheriffsim -mode surge`: each surge
// regime (plus the diurnal control) generates a rack-level stress series,
// every candidate in the burst-extended pool forecasts it rolling, and
// each (regime, candidate) cell reports both the statistician's score
// (one-step MSE, sliding-window win share) and the operator's score
// (lead time, precision, recall at the overload threshold — see
// ScoreEarlyWarning). A final cluster pass drives correlated
// multi-rack bursts through the sharded step engine so the regional
// pre-alert plane is exercised end to end, not just per-series.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"sheriff/internal/alert"
	"sheriff/internal/predictor"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// SurgeConfig sizes one surge-evaluation run. Zero fields take defaults.
type SurgeConfig struct {
	Seed int64 `json:"seed"`
	// Hours is the generated trace length per regime (default 12; the
	// first half trains the pool, the second half is scored rolling).
	Hours int `json:"hours"`
	// VMs is how many VM streams are averaged into the rack-level stress
	// series (default 8).
	VMs int `json:"vms"`
	// Window is the selector's sliding MSE window T_p (default 20).
	Window int `json:"window"`
	// MaxLead is the operator's alert horizon in steps: alerts count only
	// within MaxLead steps of an overload onset (default 10). It is also
	// the forecast path length used to raise alerts.
	MaxLead int `json:"max_lead"`
	// Threshold is the overload level; 0 picks the 95th percentile of
	// each regime's training half, so every regime has a meaningful line
	// to cross.
	Threshold float64 `json:"threshold"`
	// Intensity scales the surge amplitudes (default 1.5).
	Intensity float64 `json:"intensity"`
	// ClusterRacks / ClusterSteps size the sharded-engine pass driving
	// correlated rack bursts through the full pre-alert plane
	// (defaults 8 racks, 120 steps). SkipCluster omits the pass.
	ClusterRacks int  `json:"cluster_racks"`
	ClusterSteps int  `json:"cluster_steps"`
	SkipCluster  bool `json:"skip_cluster,omitempty"`
}

func (c SurgeConfig) withDefaults() SurgeConfig {
	if c.Hours == 0 {
		c.Hours = 12
	}
	if c.VMs == 0 {
		c.VMs = 8
	}
	if c.MaxLead == 0 {
		c.MaxLead = 10
	}
	if c.Intensity == 0 {
		c.Intensity = 1.5
	}
	if c.ClusterRacks == 0 {
		c.ClusterRacks = 8
	}
	if c.ClusterSteps == 0 {
		c.ClusterSteps = 120
	}
	return c
}

// SurgeCell is one (regime, candidate) grid cell.
type SurgeCell struct {
	Regime    string  `json:"regime"`
	Candidate string  `json:"candidate"`
	MSE       float64 `json:"mse"`
	WinShare  float64 `json:"win_share"`
	Winner    bool    `json:"winner"` // won the sliding-window-MSE selection
	Threshold float64 `json:"threshold"`
	LeadTime  float64 `json:"lead_time"` // mean steps of warning, detected episodes
	EarlyWarnScore
}

// SurgeClusterStats summarizes the sharded-engine pass under correlated
// rack bursts.
type SurgeClusterStats struct {
	Racks        int     `json:"racks"`
	VMs          int     `json:"vms"`
	Steps        int     `json:"steps"`
	SurgeSteps   int     `json:"surge_steps"` // steps inside a surge regime
	ServerAlerts int     `json:"server_alerts"`
	ToRAlerts    int     `json:"tor_alerts"`
	Migrations   int     `json:"migrations"`
	SurgeAlerts  int     `json:"surge_alerts"` // server alerts raised during surge windows
	Alignment    float64 `json:"alignment"`    // surge_alerts / server_alerts
	SurgeShare   float64 `json:"surge_share"`  // surge_steps / steps
	AlertLift    float64 `json:"alert_lift"`   // alert rate in surge windows over calm windows
	CalmAlerts   int     `json:"calm_alerts"`  // = server_alerts - surge_alerts
}

// SurgeResult is the full grid plus the cluster pass.
type SurgeResult struct {
	Config  SurgeConfig        `json:"config"`
	Cells   []SurgeCell        `json:"cells"`
	Winners map[string]string  `json:"winners"` // regime -> winning candidate
	Cluster *SurgeClusterStats `json:"cluster,omitempty"`
}

// surgeRegimes is the grid's regime axis: the diurnal control plus one
// single-regime surge trace per surge family, in report order.
func surgeRegimes(intensity float64) []struct {
	name string
	opts func(seed int64, hours int) traces.Options
} {
	single := func(p traces.SurgeParams) func(int64, int) traces.Options {
		return func(seed int64, hours int) traces.Options {
			p := p
			p.Intensity = intensity
			return traces.Options{Kind: traces.Surge, Seed: seed, Hours: hours, Surge: p}
		}
	}
	return []struct {
		name string
		opts func(seed int64, hours int) traces.Options
	}{
		{"diurnal", func(seed int64, hours int) traces.Options {
			return traces.Options{Kind: traces.Diurnal, Seed: seed, Hours: hours}
		}},
		{"train-wave", single(traces.SurgeParams{TrainWeight: 1})},
		{"flash-crowd", single(traces.SurgeParams{FlashWeight: 1})},
		{"rack-burst", single(traces.SurgeParams{BurstWeight: 1})},
	}
}

// rackStress materializes the rack-level stress series: the mean peak
// utilization over the rack's VM streams, the quantity the deep pool and
// the regional pre-alert watch.
func rackStress(o traces.Options, vms, n int) (*timeseries.Series, error) {
	gen, err := traces.New(o)
	if err != nil {
		return nil, err
	}
	srcs := make([]traces.Source, vms)
	for i := range srcs {
		srcs[i] = gen.Source(i, 0)
	}
	return timeseries.FromFunc(n, func(int) float64 {
		sum := 0.0
		for _, s := range srcs {
			sum += s.Next().Max()
		}
		return sum / float64(vms)
	}), nil
}

// quantile returns the q-quantile of the series (nearest-rank).
func quantile(s *timeseries.Series, q float64) float64 {
	vals := s.Values()
	sort.Float64s(vals)
	i := int(q * float64(len(vals)-1))
	return vals[i]
}

// RunSurge evaluates the burst-extended predictor pool over the regime
// grid and, unless disabled, drives the sharded engine through a
// correlated rack-burst scenario.
func RunSurge(cfg SurgeConfig) (*SurgeResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Hours < 2 {
		return nil, fmt.Errorf("experiments: surge run needs Hours >= 2, got %d", cfg.Hours)
	}
	res := &SurgeResult{Config: cfg, Winners: make(map[string]string)}
	n := cfg.Hours * traces.SamplesPerHour

	for _, reg := range surgeRegimes(cfg.Intensity) {
		stress, err := rackStress(reg.opts(cfg.Seed, cfg.Hours), cfg.VMs, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: surge regime %s: %w", reg.name, err)
		}
		train, test := stress.Split(0.5)
		threshold := cfg.Threshold
		if threshold == 0 {
			threshold = quantile(train, 0.95)
		}

		popts := predictor.Options{Burst: true, Seed: cfg.Seed + 1, Window: cfg.Window}
		cands, err := predictor.Pool(train, popts)
		if err != nil {
			return nil, fmt.Errorf("experiments: surge regime %s: %w", reg.name, err)
		}

		// Pass 1, candidate-major: each candidate forecasts the test half
		// rolling on its own append-only history (suffix-aware fast paths
		// stay warm). fc[0] scores the MSE; the max over the MaxLead-step
		// path raises the operator's pre-alert.
		actual := test.Values()
		pred1 := make([][]float64, len(cands))
		alertPath := make([][]float64, len(cands))
		for ci, c := range cands {
			pred1[ci] = make([]float64, test.Len())
			alertPath[ci] = make([]float64, test.Len())
			hist := train.Clone()
			var buf []float64
			for t := 0; t < test.Len(); t++ {
				fc, err := c.F.ForecastFrom(buf[:0], hist, cfg.MaxLead)
				if err != nil {
					// A candidate that cannot forecast predicts "no change".
					fc = []float64{hist.Last()}
				} else {
					buf = fc
				}
				pred1[ci][t] = fc[0]
				path := fc[0]
				for _, v := range fc {
					if v > path {
						path = v
					}
				}
				alertPath[ci][t] = path
				hist.Append(actual[t])
			}
		}

		// Pass 2: the dynamic selection itself — which candidate holds the
		// sliding-window-MSE crown, step by step.
		sel, err := predictor.NewSelector(train, predictor.Config{Window: cfg.Window}, cands...)
		if err != nil {
			return nil, fmt.Errorf("experiments: surge regime %s: %w", reg.name, err)
		}
		_, winShare, err := sel.Run(test)
		if err != nil {
			return nil, fmt.Errorf("experiments: surge regime %s: %w", reg.name, err)
		}
		winner, best := "", -1.0
		for name, share := range winShare {
			if share > best || (share == best && name < winner) {
				winner, best = name, share
			}
		}
		res.Winners[reg.name] = winner

		for ci, c := range cands {
			mse := 0.0
			for t, p := range pred1[ci] {
				d := p - actual[t]
				mse += d * d
			}
			mse /= float64(len(actual))
			score, err := ScoreEarlyWarning(actual, alertPath[ci], threshold, cfg.MaxLead)
			if err != nil {
				return nil, fmt.Errorf("experiments: surge regime %s: %w", reg.name, err)
			}
			res.Cells = append(res.Cells, SurgeCell{
				Regime:         reg.name,
				Candidate:      c.Name,
				MSE:            mse,
				WinShare:       winShare[c.Name],
				Winner:         c.Name == winner,
				Threshold:      threshold,
				LeadTime:       score.MeanLead,
				EarlyWarnScore: score,
			})
		}
	}

	if !cfg.SkipCluster {
		cl, err := runSurgeCluster(cfg)
		if err != nil {
			return nil, err
		}
		res.Cluster = cl
	}
	return res, nil
}

// runSurgeCluster drives correlated multi-rack bursts through the sharded
// step engine and measures how the pre-alert volume aligns with the surge
// windows — the regional property the per-series grid cannot see.
func runSurgeCluster(cfg SurgeConfig) (*SurgeClusterStats, error) {
	trOpts := traces.Options{
		Kind: traces.Surge,
		Seed: cfg.Seed,
		Surge: traces.SurgeParams{
			MeanDwell:    10,
			BurstWeight:  1,
			RackFraction: 0.5,
			Intensity:    cfg.Intensity,
		},
	}
	th := 0.85
	rt, err := sim.BuildRuntime(sim.RuntimeConfig{Kind: sim.LeafSpine, Size: cfg.ClusterRacks, Seed: cfg.Seed},
		runtime.Options{
			Traces:       trOpts,
			Thresholds:   alert.Thresholds{CPU: th, Mem: th, IO: th, TRF: th},
			HistoryLimit: 16,
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: surge cluster: %w", err)
	}
	defer rt.Close()

	// Reconstruct the generator to read the shared regime schedule: the
	// runtime's streams come from identical options, so RegimeAt matches
	// step for step.
	gen, err := traces.New(trOpts)
	if err != nil {
		return nil, err
	}
	rep, _ := gen.(traces.RegimeReporter)

	st := &SurgeClusterStats{Racks: cfg.ClusterRacks, VMs: len(rt.Cluster.VMs()), Steps: cfg.ClusterSteps}
	for i := 0; i < cfg.ClusterSteps; i++ {
		stats, err := rt.Step()
		if err != nil {
			return nil, fmt.Errorf("experiments: surge cluster step %d: %w", i, err)
		}
		inSurge := rep != nil && rep.RegimeAt(i) != traces.RegimeCalm
		if inSurge {
			st.SurgeSteps++
			st.SurgeAlerts += stats.ServerAlerts
		}
		st.ServerAlerts += stats.ServerAlerts
		st.ToRAlerts += stats.ToRAlerts
		st.Migrations += stats.Migrations
	}
	st.CalmAlerts = st.ServerAlerts - st.SurgeAlerts
	if st.ServerAlerts > 0 {
		st.Alignment = float64(st.SurgeAlerts) / float64(st.ServerAlerts)
	}
	if st.Steps > 0 {
		st.SurgeShare = float64(st.SurgeSteps) / float64(st.Steps)
	}
	calmSteps := st.Steps - st.SurgeSteps
	if st.SurgeSteps > 0 && calmSteps > 0 && st.CalmAlerts > 0 {
		surgeRate := float64(st.SurgeAlerts) / float64(st.SurgeSteps)
		calmRate := float64(st.CalmAlerts) / float64(calmSteps)
		st.AlertLift = surgeRate / calmRate
	} else if st.SurgeAlerts > 0 {
		st.AlertLift = math.Inf(1)
	}
	return st, nil
}
