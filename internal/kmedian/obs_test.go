package kmedian

import (
	"testing"

	"sheriff/internal/obs"
)

// TestLocalSearchTrace checks the cost-trajectory events: one initial
// cost event, one swap event per accepted swap ending at the solution
// cost, and at least one scan per swap (plus the final proving scans).
func TestLocalSearchTrace(t *testing.T) {
	in := lineInstance(24, 4)
	var events []obs.Event
	rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.Func(func(e obs.Event) error {
		events = append(events, e)
		return nil
	})}})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := LocalSearch(in, Options{Seed: 9, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(obs.KindCost); got != 1 {
		t.Fatalf("cost events = %d, want 1", got)
	}
	if got := rec.Count(obs.KindSwap); got != uint64(sol.Swaps) {
		t.Fatalf("swap events = %d, want %d", got, sol.Swaps)
	}
	if got := rec.Count(obs.KindScan); got < uint64(sol.Swaps)+1 {
		t.Fatalf("scan events = %d, want >= %d (one per swap plus the proving scan)", got, sol.Swaps+1)
	}
	var lastSwap *obs.Event
	prev := 0.0
	first := true
	for _, e := range events {
		e := e
		switch e.Kind {
		case obs.KindCost:
			prev, first = e.Value, false
		case obs.KindSwap:
			if first {
				t.Fatal("swap before the initial cost event")
			}
			if e.Value >= prev {
				t.Fatalf("swap did not improve: %v -> %v", prev, e.Value)
			}
			prev = e.Value
			lastSwap = &e
		}
	}
	if sol.Swaps > 0 {
		if lastSwap == nil || lastSwap.Value != sol.Cost {
			t.Fatalf("final swap value %+v, want solution cost %v", lastSwap, sol.Cost)
		}
	}
	// The trace must not perturb the search: same seed, no recorder,
	// identical solution.
	plain, err := LocalSearch(in, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != sol.Cost || plain.Swaps != sol.Swaps {
		t.Fatalf("recorder changed the search: %v/%d vs %v/%d", sol.Cost, sol.Swaps, plain.Cost, plain.Swaps)
	}
}
