package sheriff

import "testing"

func TestEvaluateAlertFacade(t *testing.T) {
	v, fired := EvaluateAlert(Profile{CPU: 0.95}, DefaultThresholds())
	if !fired || v != 0.95 {
		t.Fatalf("alert = %v fired=%v", v, fired)
	}
}

func TestNewFatTreeClusterFacade(t *testing.T) {
	cluster, model, shims, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.Racks) != 8 || len(shims) != 8 {
		t.Fatalf("racks=%d shims=%d", len(cluster.Racks), len(shims))
	}
	if model == nil {
		t.Fatal("nil cost model")
	}
	if _, _, _, err := NewFatTreeCluster(3, 2, 100); err == nil {
		t.Fatal("odd pods accepted")
	}
}

func TestBuildSimulationAndCompareFacade(t *testing.T) {
	s, err := BuildSimulation(SimConfig{Kind: FatTree, Size: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Populate()
	res, err := Compare(SimConfig{Kind: FatTree, Size: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.SheriffSpace >= res.CentralSpace {
		t.Fatalf("regional space %d not below central %d", res.SheriffSpace, res.CentralSpace)
	}
}
