package experiments

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestEarlyWarnBasic walks a hand-checked trace: two episodes, both
// alerted in time, with a known lead on each.
func TestEarlyWarnBasic(t *testing.T) {
	actual := []float64{0, 0, 0, 1, 1, 0, 0, 0, 0, 1}
	predicted := []float64{0, 1, 0, 0, 0, 0, 0, 1, 0, 0}
	sc, err := ScoreEarlyWarning(actual, predicted, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Episodes != 2 || sc.Detected != 2 {
		t.Fatalf("episodes/detected = %d/%d, want 2/2", sc.Episodes, sc.Detected)
	}
	if sc.Alerts != 2 || sc.TruePositives != 2 {
		t.Fatalf("alerts/TP = %d/%d, want 2/2", sc.Alerts, sc.TruePositives)
	}
	if !approx(sc.Precision, 1) || !approx(sc.Recall, 1) {
		t.Fatalf("precision/recall = %v/%v, want 1/1", sc.Precision, sc.Recall)
	}
	// Leads: onset 3 alerted at 1 (lead 2), onset 9 alerted at 7 (lead 2).
	if !approx(sc.MeanLead, 2) {
		t.Fatalf("mean lead = %v, want 2", sc.MeanLead)
	}
}

// TestEarlyWarnTooEarlyIsFalseAlarm: an alert farther than maxLead ahead
// of the onset is a false positive — foresight an operator cannot hold.
func TestEarlyWarnTooEarlyIsFalseAlarm(t *testing.T) {
	actual := []float64{0, 0, 0, 0, 1}
	predicted := []float64{1, 0, 0, 0, 0}
	sc, err := ScoreEarlyWarning(actual, predicted, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Alerts != 1 || sc.TruePositives != 0 {
		t.Fatalf("alerts/TP = %d/%d, want 1/0", sc.Alerts, sc.TruePositives)
	}
	if !approx(sc.Precision, 0) {
		t.Fatalf("precision = %v, want 0", sc.Precision)
	}
	if sc.Detected != 0 || !approx(sc.Recall, 0) {
		t.Fatalf("detected/recall = %d/%v, want 0/0", sc.Detected, sc.Recall)
	}
}

// TestEarlyWarnInEpisodeNotAlert: a threshold-crossing forecast made
// while the actual value is already over the line is not a pre-alert.
func TestEarlyWarnInEpisodeNotAlert(t *testing.T) {
	actual := []float64{0, 1, 1, 1, 0}
	predicted := []float64{0, 2, 2, 2, 0}
	sc, err := ScoreEarlyWarning(actual, predicted, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Alerts != 0 {
		t.Fatalf("alerts = %d, want 0 (all crossings were in-episode)", sc.Alerts)
	}
	if sc.Episodes != 1 || sc.Detected != 0 {
		t.Fatalf("episodes/detected = %d/%d, want 1/0", sc.Episodes, sc.Detected)
	}
}

// TestEarlyWarnSilenceAndCalm pin the degenerate conventions: no alerts
// means precision 1, no episodes means recall 1.
func TestEarlyWarnSilenceAndCalm(t *testing.T) {
	calm := []float64{0, 0, 0, 0}
	sc, err := ScoreEarlyWarning(calm, calm, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sc.Precision, 1) || !approx(sc.Recall, 1) {
		t.Fatalf("precision/recall = %v/%v, want 1/1", sc.Precision, sc.Recall)
	}
	if sc.Episodes != 0 || sc.Alerts != 0 {
		t.Fatalf("episodes/alerts = %d/%d, want 0/0", sc.Episodes, sc.Alerts)
	}
}

// TestEarlyWarnEarliestLead: multiple in-window alerts for one onset use
// the earliest for the lead, and all count as true positives.
func TestEarlyWarnEarliestLead(t *testing.T) {
	actual := []float64{0, 0, 0, 0, 1}
	predicted := []float64{0, 1, 0, 1, 0}
	sc, err := ScoreEarlyWarning(actual, predicted, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Alerts != 2 || sc.TruePositives != 2 {
		t.Fatalf("alerts/TP = %d/%d, want 2/2", sc.Alerts, sc.TruePositives)
	}
	if !approx(sc.MeanLead, 3) { // onset 4, earliest alert 1
		t.Fatalf("mean lead = %v, want 3", sc.MeanLead)
	}
}

// TestEarlyWarnErrors: mismatched lengths and a non-positive horizon are
// rejected.
func TestEarlyWarnErrors(t *testing.T) {
	if _, err := ScoreEarlyWarning([]float64{1}, []float64{1, 2}, 1, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ScoreEarlyWarning([]float64{1}, []float64{1}, 1, 0); err == nil {
		t.Fatal("maxLead 0 accepted")
	}
}
