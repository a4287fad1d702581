package runtime

import (
	"sync"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/obs"
	"sheriff/internal/topology"
)

// TestRecorderSharedAcrossRuntimes hammers one Recorder from several
// concurrently stepping runtimes (each Step additionally fans its predict
// phase out over the shared pool), the deployment shape where one trace
// aggregates a whole fleet. Run under -race; the assertions only check
// the recorder survived with a consistent event stream.
func TestRecorderSharedAcrossRuntimes(t *testing.T) {
	var seqs []uint64 // appended under the recorder's lock
	rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.Func(func(e obs.Event) error {
		seqs = append(seqs, e.Seq)
		return nil
	})}})
	if err != nil {
		t.Fatal(err)
	}
	const runtimes = 4
	const steps = 6

	var wg sync.WaitGroup
	errs := make([]error, runtimes)
	for i := 0; i < runtimes; i++ {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.4, Seed: int64(i)})
		model, err := cost.New(cluster, cost.PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(cluster, model, Options{Seed: int64(i), Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, rt *Runtime) {
			defer wg.Done()
			_, errs[i] = drive(rt).Run(steps)
		}(i, rt)
	}
	// A concurrent reader polls the counters while the writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j < 200; j++ {
			_ = rec.Seq()
			for _, k := range rec.Kinds() {
				_ = rec.Count(k)
			}
		}
	}()
	wg.Wait()
	<-done

	for i, err := range errs {
		if err != nil {
			t.Fatalf("runtime %d: %v", i, err)
		}
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	// Every step records 4 phase events, so at minimum the recorder saw
	// runtimes × steps × 4 of those.
	if got := rec.Count(obs.KindPhase); got < runtimes*steps*4 {
		t.Fatalf("phase events = %d, want >= %d", got, runtimes*steps*4)
	}
	if uint64(len(seqs)) != rec.Seq() {
		t.Fatalf("sink saw %d events, recorder stamped %d", len(seqs), rec.Seq())
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("sink order broken at %d: seq %d", i, s)
		}
	}
}
