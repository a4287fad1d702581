// Distillation of the deep predictor pool into the fixed-point triage
// filter (`sheriffsim -mode distill`). The teacher is the burst-extended
// ARIMA/NARNET pool behind the surge grid: per regime it rolls over the
// test half and raises a pre-alert wherever the MaxLead-step forecast
// path crosses the overload threshold. The student is the quantized Holt
// smoother from internal/quant — two int32 words and a handful of dyadic
// multiplies per update. DistillQuant grid-searches the student's
// coefficient space (α, β numerators, lead horizon, per-regime alert
// threshold offset) for the configuration whose alert stream best
// reproduces the teacher's, scored as tolerance-window precision/recall
// per regime.
package experiments

import (
	"fmt"

	"sheriff/internal/predictor"
	"sheriff/internal/quant"
	"sheriff/internal/traces"
)

// DistillConfig sizes one distillation run. Zero fields take defaults.
type DistillConfig struct {
	Seed int64 `json:"seed"`
	// Hours is the trace length per regime (default 12; first half warms
	// the teacher pool and the student state, second half is labeled).
	Hours int `json:"hours"`
	// VMs is how many VM streams average into the rack stress series
	// (default 8).
	VMs int `json:"vms"`
	// Window is the teacher selector's sliding MSE window (default 20).
	Window int `json:"window"`
	// MaxLead is the teacher's forecast-path alert horizon in steps
	// (default 10); the student's distilled Lead is capped by it.
	MaxLead int `json:"max_lead"`
	// Intensity scales surge amplitudes (default 1.5).
	Intensity float64 `json:"intensity"`
	// Tolerance is the alert-matching window in steps: a student alert
	// within ±Tolerance of a teacher alert counts as the same alert
	// (default 3).
	Tolerance int `json:"tolerance"`
	// Shift is the dyadic coefficient resolution (default quant.DefaultShift).
	Shift uint32 `json:"shift"`
}

func (c DistillConfig) withDefaults() DistillConfig {
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
	if c.Tolerance == 0 {
		c.Tolerance = 3
	}
	if c.Shift == 0 {
		c.Shift = quant.DefaultShift
	}
	return c
}

// DistillRegime is the fidelity report for one regime: how faithfully the
// distilled fixed-point filter reproduces the deep pool's alert stream.
type DistillRegime struct {
	Regime string `json:"regime"`
	// Threshold is the regime's overload level (train p95); AlertAt is the
	// student's fitted trigger, Threshold + the distilled offset.
	Threshold float64 `json:"threshold"`
	AlertAt   float64 `json:"alert_at"`
	// PoolAlerts / QuantAlerts count teacher and student pre-alert steps
	// over the labeled half; Matched is how many student alerts fall
	// within ±Tolerance of a teacher alert.
	PoolAlerts  int `json:"pool_alerts"`
	QuantAlerts int `json:"quant_alerts"`
	Matched     int `json:"matched"`
	// Precision/Recall grade the student's alert stream against the
	// teacher's: precision = matched student alerts / student alerts,
	// recall = teacher alerts with a student alert within ±Tolerance /
	// teacher alerts (each 1 when the denominator is empty).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// MeanLead is the student's mean early-warning margin against the
	// actual overload episodes (ScoreEarlyWarning), in steps; PoolLead is
	// the teacher's own margin on the same series, for reference.
	MeanLead float64 `json:"mean_lead"`
	PoolLead float64 `json:"pool_lead"`
}

// DistillResult is the fitted student plus its per-regime fidelity.
type DistillResult struct {
	Config DistillConfig `json:"config"`
	// Coeffs is the distilled fixed-point configuration shared across
	// regimes; Offsets holds the per-regime alert-threshold offset
	// (AlertAt - Threshold) the fit selected.
	Coeffs  quant.Coeffs       `json:"coeffs"`
	Offsets map[string]float64 `json:"offsets"`
	// Score is the fit objective: Σ over regimes of min(precision, recall).
	Score   float64         `json:"score"`
	Regimes []DistillRegime `json:"regimes"`
}

// regimeLabels is one regime's frozen teaching material: the labeled half,
// the teacher's alert mask over it, and the quantized warm-up stream.
type regimeLabels struct {
	name      string
	threshold float64
	actual    []float64
	train     []quant.Q
	test      []quant.Q
	poolAlert []bool
	poolLead  float64
}

// buildLabels rolls the teacher pool over one regime and freezes its
// alert stream: poolAlert[t] is true where the MaxLead-step forecast path
// crosses the threshold while the actual value is still below it — the
// same pre-alert definition ScoreEarlyWarning counts.
func buildLabels(cfg DistillConfig, name string, topts traces.Options) (*regimeLabels, error) {
	n := cfg.Hours * traces.SamplesPerHour
	stress, err := rackStress(topts, cfg.VMs, n)
	if err != nil {
		return nil, fmt.Errorf("experiments: distill regime %s: %w", name, err)
	}
	train, test := stress.Split(0.5)
	lb := &regimeLabels{
		name:      name,
		threshold: quantile(train, 0.95),
		actual:    test.Values(),
		train:     quantize(train.Values()),
		test:      quantize(test.Values()),
		poolAlert: make([]bool, test.Len()),
	}

	cands, err := predictor.Pool(train, predictor.Options{Burst: true, Seed: cfg.Seed + 1, Window: cfg.Window})
	if err != nil {
		return nil, fmt.Errorf("experiments: distill regime %s: %w", name, err)
	}
	sel, err := predictor.NewSelector(train, predictor.Config{Window: cfg.Window}, cands...)
	if err != nil {
		return nil, fmt.Errorf("experiments: distill regime %s: %w", name, err)
	}
	poolSignal := make([]float64, len(lb.actual))
	last := train.Last()
	for t := range lb.actual {
		sig := last
		if path, _, err := sel.PredictK(cfg.MaxLead); err == nil {
			for _, v := range path {
				if v > sig {
					sig = v
				}
			}
		}
		poolSignal[t] = sig
		lb.poolAlert[t] = sig >= lb.threshold && lb.actual[t] < lb.threshold
		sel.Observe(lb.actual[t])
		last = lb.actual[t]
	}
	sc, err := ScoreEarlyWarning(lb.actual, poolSignal, lb.threshold, cfg.MaxLead)
	if err != nil {
		return nil, fmt.Errorf("experiments: distill regime %s: %w", name, err)
	}
	lb.poolLead = sc.MeanLead
	return lb, nil
}

func quantize(vals []float64) []quant.Q {
	out := make([]quant.Q, len(vals))
	for i, v := range vals {
		out[i] = quant.FromFloat(v)
	}
	return out
}

// studentSignal rolls the quantized smoother over the regime — warm on
// the training half, then record the pre-observe signal for each labeled
// step, exactly the quantity the ingest drain compares to its threshold.
func studentSignal(lb *regimeLabels, c quant.Coeffs) []quant.Q {
	var h quant.Holt
	for _, v := range lb.train {
		h.Observe(v, c)
	}
	sig := make([]quant.Q, len(lb.test))
	for t, v := range lb.test {
		sig[t] = h.Signal(c)
		h.Observe(v, c)
	}
	return sig
}

// matchAlerts computes tolerance-window precision/recall of the student
// alert mask against the teacher's.
func matchAlerts(pool, student []bool, tol int) (prec, rec float64, matched int) {
	within := func(mask []bool, t int) bool {
		lo, hi := t-tol, t+tol
		if lo < 0 {
			lo = 0
		}
		if hi > len(mask)-1 {
			hi = len(mask) - 1
		}
		for i := lo; i <= hi; i++ {
			if mask[i] {
				return true
			}
		}
		return false
	}
	var nStudent, nPool, hitPool int
	for t, on := range student {
		if !on {
			continue
		}
		nStudent++
		if within(pool, t) {
			matched++
		}
	}
	for t, on := range pool {
		if !on {
			continue
		}
		nPool++
		if within(student, t) {
			hitPool++
		}
	}
	prec, rec = 1, 1
	if nStudent > 0 {
		prec = float64(matched) / float64(nStudent)
	}
	if nPool > 0 {
		rec = float64(hitPool) / float64(nPool)
	}
	return prec, rec, matched
}

// distillOffsets is the per-regime alert-threshold offset grid: negative
// offsets trade precision for sensitivity (the student fires earlier than
// the overload line), mirroring how far below the threshold the teacher's
// forecast path typically crosses.
var distillOffsets = []float64{-0.12, -0.10, -0.08, -0.06, -0.04, -0.02, 0, 0.02, 0.04}

// DistillQuant fits the fixed-point filter to the deep pool's alerts: a
// grid search over dyadic (α, β), the lead horizon, and per-regime
// threshold offsets, maximizing Σ min(precision, recall) against the
// teacher's alert stream (ties break toward higher Σ(precision+recall),
// then smaller lead — the cheaper extrapolation).
func DistillQuant(cfg DistillConfig) (*DistillResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Hours < 2 {
		return nil, fmt.Errorf("experiments: distill needs Hours >= 2, got %d", cfg.Hours)
	}
	if cfg.Tolerance < 0 {
		return nil, fmt.Errorf("experiments: distill Tolerance must be >= 0, got %d", cfg.Tolerance)
	}
	var labels []*regimeLabels
	for _, reg := range surgeRegimes(cfg.Intensity) {
		lb, err := buildLabels(cfg, reg.name, reg.opts(cfg.Seed, cfg.Hours))
		if err != nil {
			return nil, err
		}
		labels = append(labels, lb)
	}

	alphas := []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}
	betas := []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5}
	leads := []int32{1, 2, 3, 4, 5, 6, 8, 10}

	type fit struct {
		score, tie float64
		offsets    []float64
		regimes    []DistillRegime
	}
	best := fit{score: -1}
	var bestC quant.Coeffs
	student := make([]bool, 0)
	for _, a := range alphas {
		for _, b := range betas {
			for _, lead := range leads {
				if int(lead) > cfg.MaxLead {
					continue
				}
				c := quant.Snap(a, b, cfg.Shift)
				c.Lead = lead
				cur := fit{offsets: make([]float64, len(labels)), regimes: make([]DistillRegime, len(labels))}
				for li, lb := range labels {
					sig := studentSignal(lb, c)
					bestMin, bestTie := -1.0, -1.0
					for _, off := range distillOffsets {
						trigger := quant.FromFloat(lb.threshold + off)
						student = student[:0]
						for t, s := range sig {
							student = append(student, s >= trigger && lb.actual[t] < lb.threshold)
						}
						prec, rec, matched := matchAlerts(lb.poolAlert, student, cfg.Tolerance)
						mn, tie := prec, prec+rec
						if rec < mn {
							mn = rec
						}
						if mn > bestMin || (mn == bestMin && tie > bestTie) {
							bestMin, bestTie = mn, tie
							nAlerts, nPool := 0, 0
							for t := range student {
								if student[t] {
									nAlerts++
								}
								if lb.poolAlert[t] {
									nPool++
								}
							}
							cur.offsets[li] = off
							cur.regimes[li] = DistillRegime{
								Regime: lb.name, Threshold: lb.threshold, AlertAt: lb.threshold + off,
								PoolAlerts: nPool, QuantAlerts: nAlerts, Matched: matched,
								Precision: prec, Recall: rec, PoolLead: lb.poolLead,
							}
						}
					}
					cur.score += bestMin
					cur.tie += bestTie
				}
				if cur.score > best.score ||
					(cur.score == best.score && cur.tie > best.tie) ||
					(cur.score == best.score && cur.tie == best.tie && lead < bestC.Lead) {
					best, bestC = cur, c
				}
			}
		}
	}

	res := &DistillResult{Config: cfg, Coeffs: bestC, Offsets: make(map[string]float64), Score: best.score}
	for li, lb := range labels {
		reg := best.regimes[li]
		// Lead time against the actual overload episodes, at the fitted
		// trigger (the EarlyWarnCurve shift trick: alert iff signal >=
		// trigger <=> signal - offset >= threshold).
		sig := studentSignal(lb, bestC)
		shifted := make([]float64, len(sig))
		for t, s := range sig {
			shifted[t] = s.Float() - best.offsets[li]
		}
		sc, err := ScoreEarlyWarning(lb.actual, shifted, lb.threshold, cfg.MaxLead)
		if err != nil {
			return nil, err
		}
		reg.MeanLead = sc.MeanLead
		res.Offsets[lb.name] = best.offsets[li]
		res.Regimes = append(res.Regimes, reg)
	}
	return res, nil
}
