// Early-warning scoring: the operator's view of prediction quality.
// MSE says how close the forecast tracked the signal; an operator asks a
// different question — when stress actually crossed the line, how many
// steps of warning did the alert give, and how many alerts cried wolf?
// ScoreEarlyWarning answers with precision/recall-at-lead-time over
// overload episodes.
package experiments

import (
	"fmt"
)

// EarlyWarnScore grades one predicted series against the truth.
type EarlyWarnScore struct {
	// Episodes is the number of overload episodes in the actual series:
	// maximal runs of consecutive steps with actual >= threshold.
	Episodes int `json:"episodes"`
	// Detected is how many episodes had at least one alert raised within
	// MaxLead steps before their onset.
	Detected int `json:"detected"`
	// Alerts is the number of pre-alerts raised: steps where the forecast
	// crossed the threshold while the actual value was still below it
	// (in-episode steps don't count — warning during the fire is not a
	// pre-alert).
	Alerts int `json:"alerts"`
	// TruePositives is how many of those alerts were followed by an
	// episode onset within MaxLead steps.
	TruePositives int `json:"true_positives"`
	// Precision = TruePositives/Alerts (1 when no alerts were raised —
	// silence tells no lies); Recall = Detected/Episodes (1 when the trace
	// had no episodes).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// MeanLead is the mean warning margin over detected episodes: steps
	// between the earliest in-window alert and the onset.
	MeanLead float64 `json:"mean_lead"`
}

// ScoreEarlyWarning grades predicted against actual, step-aligned:
// predicted[t] is the forecast for step t (made before actual[t] was
// observed). threshold defines overload; maxLead is the alert horizon an
// operator would act on — alerts earlier than maxLead steps before an
// onset count as false positives, not foresight.
func ScoreEarlyWarning(actual, predicted []float64, threshold float64, maxLead int) (EarlyWarnScore, error) {
	if len(actual) != len(predicted) {
		return EarlyWarnScore{}, fmt.Errorf("experiments: early-warning series lengths differ: %d vs %d", len(actual), len(predicted))
	}
	if maxLead < 1 {
		return EarlyWarnScore{}, fmt.Errorf("experiments: maxLead must be >= 1, got %d", maxLead)
	}
	n := len(actual)
	var sc EarlyWarnScore

	// Episode onsets: below-threshold step followed by at-or-above.
	onset := make([]bool, n)
	for t := 0; t < n; t++ {
		if actual[t] >= threshold && (t == 0 || actual[t-1] < threshold) {
			onset[t] = true
			sc.Episodes++
		}
	}
	// nextOnset[t] = index of the first onset at or after t (n = none).
	nextOnset := make([]int, n+1)
	nextOnset[n] = n
	for t := n - 1; t >= 0; t-- {
		if onset[t] {
			nextOnset[t] = t
		} else {
			nextOnset[t] = nextOnset[t+1]
		}
	}

	earliest := make(map[int]int) // onset step -> earliest alerting step
	for t := 0; t < n; t++ {
		if predicted[t] < threshold || actual[t] >= threshold {
			continue
		}
		sc.Alerts++
		if o := nextOnset[t]; o < n && o-t <= maxLead {
			sc.TruePositives++
			if e, ok := earliest[o]; !ok || t < e {
				earliest[o] = t
			}
		}
	}
	sc.Detected = len(earliest)
	leadSum := 0
	for o, t := range earliest {
		leadSum += o - t
	}
	sc.Precision = 1
	if sc.Alerts > 0 {
		sc.Precision = float64(sc.TruePositives) / float64(sc.Alerts)
	}
	sc.Recall = 1
	if sc.Episodes > 0 {
		sc.Recall = float64(sc.Detected) / float64(sc.Episodes)
	}
	if sc.Detected > 0 {
		sc.MeanLead = float64(leadSum) / float64(sc.Detected)
	}
	return sc, nil
}
