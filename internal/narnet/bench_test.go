package narnet

import (
	"testing"

	"sheriff/internal/forecasttest"
)

func BenchmarkNARNETTrain(b *testing.B) {
	s := forecasttest.BenchSeries(320)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(s, Config{Inputs: 16, Hidden: 20, Seed: 20150707, Epochs: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNARNETForecast(b *testing.B) {
	s := forecasttest.BenchSeries(320)
	n, err := Train(s, Config{Inputs: 16, Hidden: 20, Seed: 20150707, Epochs: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.ForecastFrom(nil, s, 10); err != nil {
			b.Fatal(err)
		}
	}
}
