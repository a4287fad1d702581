package sheriff

import (
	"math"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/traces"
)

func TestFitSARIMAFacade(t *testing.T) {
	data := traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: 40}).Values()
	m, err := FitSARIMA(data, SARIMAOrder{Order: ARIMAOrder{P: 1, Q: 1}, SP: 1, SD: 1, Period: 64})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if math.IsNaN(v) {
			t.Fatal("NaN forecast")
		}
	}
}

func TestDecomposeFacade(t *testing.T) {
	data := traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: 41}).Values()
	d, err := Decompose(data, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.SeasonalStrength() < 0.3 {
		t.Fatalf("daily traffic season strength = %v, want substantial", d.SeasonalStrength())
	}
}

func TestDetectPeriodFacade(t *testing.T) {
	data := traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: 42}).Values()
	p := DetectPeriod(data, 8, 128)
	if p < 56 || p > 72 {
		t.Fatalf("DetectPeriod = %d, want ≈ 64 (one day)", p)
	}
}

func TestNewRuntimeFacade(t *testing.T) {
	cluster, model, _, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 15, Seed: 43})
	rt, err := NewRuntime(cluster, model, RuntimeOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestNewFlowNetworkFacade(t *testing.T) {
	cluster, _, _, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	net := NewFlowNetwork(cluster)
	f, err := net.AddFlow(cluster.Racks[0].NodeID, cluster.Racks[1].NodeID, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Path()) < 3 {
		t.Fatalf("path = %v", f.Path())
	}
}

func TestNewPredictorExtendedPoolFacade(t *testing.T) {
	data := traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: 44}).Values()
	sel, err := NewPredictor(data[:350], PredictorOptions{Pool: PredictorPoolExtended, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sel.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) {
		t.Fatal("NaN prediction")
	}
	if len(sel.Candidates()) < 5 {
		t.Fatalf("extended pool size = %d", len(sel.Candidates()))
	}
}

func TestFitHoltWintersFacade(t *testing.T) {
	data := traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: 45}).Values()
	m, err := FitHoltWinters(data, 64)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fc {
		if math.IsNaN(v) {
			t.Fatal("NaN forecast")
		}
	}
}
