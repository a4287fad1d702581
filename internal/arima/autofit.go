package arima

import (
	"fmt"

	"sheriff/internal/timeseries"
)

// SearchSpace bounds the order grid explored by AutoFit.
type SearchSpace struct {
	MaxP int
	MaxD int
	MaxQ int
}

// DefaultSearchSpace is a small Box–Jenkins grid adequate for the workload
// series in the paper (which settles on ARIMA(1,1,1) for the weekly traffic).
var DefaultSearchSpace = SearchSpace{MaxP: 3, MaxD: 2, MaxQ: 3}

// AutoFit selects the ARIMA order with minimal AIC over the search space,
// automating the Box–Jenkins identification step: the differencing order d
// is raised until the differenced series looks stationary, then (p,q) are
// chosen by information criterion.
func AutoFit(s *timeseries.Series, space SearchSpace) (*Model, error) {
	if space.MaxP < 0 || space.MaxD < 0 || space.MaxQ < 0 {
		return nil, fmt.Errorf("arima: invalid search space %+v", space)
	}
	// Identify the smallest d that yields a stationary-looking series.
	dMin := 0
	cur := s
	for dMin < space.MaxD {
		if timeseries.IsStationaryHint(cur) {
			break
		}
		next, err := timeseries.Diff(cur)
		if err != nil {
			break
		}
		cur = next
		dMin++
	}
	var best *Model
	var firstErr error
	for d := dMin; d <= space.MaxD; d++ {
		for p := 0; p <= space.MaxP; p++ {
			for q := 0; q <= space.MaxQ; q++ {
				if p == 0 && q == 0 {
					continue
				}
				m, err := Fit(s, Order{P: p, D: d, Q: q})
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				if best == nil || m.AIC() < best.AIC() {
					best = m
				}
			}
		}
		if best != nil && d > dMin {
			// Higher differencing rarely wins once a stationary d fits;
			// stop after the first extra level to bound the search.
			break
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, fmt.Errorf("arima: AutoFit found no viable model: %w", firstErr)
		}
		return nil, fmt.Errorf("arima: AutoFit found no viable model in %+v", space)
	}
	return best, nil
}
