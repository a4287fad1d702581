package cost

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sheriff/internal/dcn"
)

// answers lists the bits of every rack pair's RackPairCost,
// TransmissionCost and Distance on m, in rack order. Pairs outside the
// regions of regional rows sweep their rows on demand.
func answers(m *Model, c *dcn.Cluster) []uint64 {
	var out []uint64
	for _, a := range c.Racks {
		for _, b := range c.Racks {
			tc, err := m.TransmissionCost(a, b, 17)
			if err != nil {
				tc = -1
			}
			out = append(out, math.Float64bits(m.RackPairCost(a, b)), math.Float64bits(tc), math.Float64bits(m.Distance(a, b)))
		}
	}
	return out
}

// TestPreparedModelsAnswerAsRefreshed: a model over prepared rows answers
// as a model over its own cluster that RefreshSources had just refreshed
// with the prepared arguments, counts the same rows as prepared, and still
// does after both refresh at patched bandwidths. Its writes go to its own
// copy: a model built later from the same rows answers as the first did
// before it wrote. A cluster weighted otherwise is refused.
func TestPreparedModelsAnswerAsRefreshed(t *testing.T) {
	for _, fabric := range []string{"fattree4", "bcube4"} {
		t.Run(fabric, func(t *testing.T) {
			built := regionalFabric(t, fabric)
			racks := built.Graph.RackNodes()
			pr, err := Prepare(built, PaperParams(), racks, 1)
			if err != nil {
				t.Fatal(err)
			}
			shared, own := &twin{c: regionalFabric(t, fabric)}, &twin{c: regionalFabric(t, fabric)}
			if shared.m, err = pr.Model(shared.c); err != nil {
				t.Fatal(err)
			}
			if own.m, err = NewDeferred(own.c, PaperParams()); err != nil {
				t.Fatal(err)
			}
			own.m.RefreshSources(racks, 1)
			if p, _ := shared.m.SweepCounts(); p != uint64(len(racks)) {
				t.Fatalf("a model over prepared rows counts %d prepared, want %d", p, len(racks))
			}
			before := answers(own.m, own.c)
			if got := answers(shared.m, shared.c); !slices.Equal(got, before) {
				t.Fatal("a model over prepared rows answers otherwise than one RefreshSources prepared")
			}
			if _, late := shared.m.SweepCounts(); late == 0 {
				t.Fatal("no query swept on demand: every pair fell inside a region")
			}

			patch(rand.New(rand.NewSource(3)), 6, shared, own)
			for _, tw := range []*twin{shared, own} {
				tw.m.RefreshSources(racks, 1)
			}
			if !slices.Equal(answers(shared.m, shared.c), answers(own.m, own.c)) {
				t.Fatal("after a refresh at patched bandwidths, the model over prepared rows answers otherwise")
			}

			later := regionalFabric(t, fabric)
			m, err := pr.Model(later)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(answers(m, later), before) {
				t.Fatal("a model built after another refreshed and swept on demand reads rows that changed")
			}

			if _, err := pr.Model(shared.c); err == nil {
				t.Fatal("Model accepted a cluster whose links' bandwidths differ from the prepared ones")
			}
		})
	}
}

// TestPreparedModelReadsClones: rows prepared on a fabric are read by a
// model over a clone of that fabric (topology.Graph.Clone), made after the
// sweep as sim.Build makes it, on each kind of fabric, and answer as a
// model over a fabric constructed afresh that RefreshSources prepared.
func TestPreparedModelReadsClones(t *testing.T) {
	for _, fabric := range []string{"fattree4", "bcube4", "leafspine10"} {
		built := regionalFabric(t, fabric)
		racks := built.Graph.RackNodes()
		pr, err := Prepare(built, PaperParams(), racks, 1)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := dcn.NewCluster(built.Graph.Clone(), built.Config())
		if err != nil {
			t.Fatal(err)
		}
		m, err := pr.Model(clone)
		if err != nil {
			t.Fatalf("%s: %v", fabric, err)
		}
		fresh := regionalFabric(t, fabric)
		own, err := NewDeferred(fresh, PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		own.RefreshSources(racks, 1)
		if !slices.Equal(answers(m, clone), answers(own, fresh)) {
			t.Fatalf("%s: prepared rows read on a clone answer otherwise than a fresh fabric's", fabric)
		}
	}
}
