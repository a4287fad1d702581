package arima

import (
	"testing"

	"sheriff/internal/forecasttest"
)

func BenchmarkARIMAFit(b *testing.B) {
	s := forecasttest.BenchSeries(448)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(s, Order{P: 1, D: 1, Q: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkARIMAForecast(b *testing.B) {
	s := forecasttest.BenchSeries(448)
	m, err := Fit(s, Order{P: 1, D: 1, Q: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forecast(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSARIMAFit(b *testing.B) {
	s := forecasttest.BenchSeries(448)
	order := SeasonalOrder{Order: Order{P: 1, Q: 1}, SP: 1, SD: 1, Period: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitSeasonal(s, order); err != nil {
			b.Fatal(err)
		}
	}
}
