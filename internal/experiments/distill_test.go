package experiments

import (
	"encoding/json"
	"testing"

	"sheriff/internal/quant"
)

func TestDistillQuantFitsPool(t *testing.T) {
	cfg := DistillConfig{Seed: 3, Hours: 4, VMs: 2}
	res, err := DistillQuant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regimes) != 4 {
		t.Fatalf("regimes: %d, want 4 (diurnal + 3 surge families)", len(res.Regimes))
	}
	if res.Coeffs == (quant.Coeffs{}) {
		t.Fatal("missing distilled coefficients")
	}
	if err := res.Coeffs.Validate(); err != nil {
		t.Fatalf("distilled coefficients invalid: %v", err)
	}
	if res.Coeffs.Lead < 1 || int(res.Coeffs.Lead) > res.Config.MaxLead {
		t.Fatalf("distilled lead %d outside [1, %d]", res.Coeffs.Lead, res.Config.MaxLead)
	}
	for _, reg := range res.Regimes {
		if reg.Precision < 0 || reg.Precision > 1 || reg.Recall < 0 || reg.Recall > 1 {
			t.Fatalf("regime %s: precision/recall out of range: %+v", reg.Regime, reg)
		}
		off, ok := res.Offsets[reg.Regime]
		if !ok {
			t.Fatalf("regime %s missing fitted offset", reg.Regime)
		}
		if got := reg.Threshold + off; got != reg.AlertAt {
			t.Fatalf("regime %s: AlertAt %v != Threshold %v + offset %v", reg.Regime, reg.AlertAt, reg.Threshold, off)
		}
	}
	// The fit is a pure function of its config.
	again, err := DistillQuant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatal("distillation is not deterministic")
	}
}

func TestDistillQuantValidation(t *testing.T) {
	if _, err := DistillQuant(DistillConfig{Hours: 1}); err == nil {
		t.Error("Hours=1 accepted")
	}
	if _, err := DistillQuant(DistillConfig{Tolerance: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestMatchAlerts(t *testing.T) {
	pool := []bool{false, true, false, false, false, false, false, true, false, false}
	student := []bool{false, false, true, false, false, false, false, false, false, true}
	prec, rec, matched := matchAlerts(pool, student, 1)
	// Student alert at 2 matches pool at 1; student at 9 misses pool at 7.
	if matched != 1 || prec != 0.5 || rec != 0.5 {
		t.Fatalf("prec %v rec %v matched %d, want 0.5/0.5/1", prec, rec, matched)
	}
	prec, rec, _ = matchAlerts(pool, student, 2)
	if prec != 1 || rec != 1 {
		t.Fatalf("tol=2: prec %v rec %v, want 1/1", prec, rec)
	}
	// No alerts on either side: silence is perfect agreement.
	prec, rec, _ = matchAlerts(make([]bool, 5), make([]bool, 5), 1)
	if prec != 1 || rec != 1 {
		t.Fatalf("empty masks: prec %v rec %v, want 1/1", prec, rec)
	}
}
