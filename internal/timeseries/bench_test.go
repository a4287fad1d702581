package timeseries_test

import (
	"testing"

	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

func BenchmarkDecompose(b *testing.B) {
	s := traces.WeeklyTraffic(traces.TrafficConfig{Days: 8, PerDay: 64, Seed: 20150707}).Slice(0, 448)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timeseries.Decompose(s, 64); err != nil {
			b.Fatal(err)
		}
	}
}
