package topology

import (
	"slices"
	"sync"
	"testing"
)

// TestCloneMatchesConstructed: a clone of each constructor's fabric, made
// after the fabric was swept, is the constructed graph (sameGraph), and the
// two share no mutable memory: a bandwidth set or a link added on the clone
// leaves the original's edges, rows, CSR view and rack neighbours as they
// were, and the other way round. Each rack's neighbours read on a clone,
// at radii 1 and 3, are the ones a walk on a fabric never cloned finds.
func TestCloneMatchesConstructed(t *testing.T) {
	for _, f := range sizedFabrics(t) {
		orig := f.got
		orig.ensureCSR()
		clone := orig.Clone()
		sameGraph(t, f.name+" clone", clone, orig)
		sameGraph(t, f.name+" clone (hand-built)", clone, f.want)
		for _, hops := range []int{1, 3} {
			for _, id := range f.want.RackNodes() {
				if got, want := clone.RackNeighbors(id, hops), f.want.RackNeighbors(id, hops); !slices.Equal(got, want) {
					t.Fatalf("%s: rack %d at %d hops has neighbours %v on the clone, %v walked", f.name, id, hops, got, want)
				}
			}
		}

		for _, pair := range [][2]*Graph{{clone, orig}, {orig, orig.Clone()}} {
			written, other := pair[0], pair[1]
			before := other.Clone()
			a, b := written.RackNodes()[0], written.NumNodes()-1 // two racks, linked by no switch
			if len(written.RackNeighbors(a, 0)) != 0 {
				t.Fatalf("%s: rack %d has a rack neighbour across no switch", f.name, a)
			}
			written.SetBandwidthAt(0, 0.25)
			mustLink(written, a, b, 1, 1)
			if written.EdgeAt(0).Bandwidth != 0.25 || !slices.Equal(written.RackNeighbors(a, 0), []int{b}) {
				t.Fatalf("%s: the written graph does not show its own writes", f.name)
			}
			sameGraph(t, f.name+" beside a written graph of its wiring", other, before)
			for _, hops := range []int{0, 3} {
				if got, want := other.RackNeighbors(a, hops), before.RackNeighbors(a, hops); !slices.Equal(got, want) {
					t.Fatalf("%s: rack %d's neighbours at %d hops moved with a link added to another graph of its wiring", f.name, a, hops)
				}
			}
		}
	}
}

// TestClonesShareRegionsConcurrently: clones of one fabric made and walked
// on several goroutines at once read the same rack neighbours a walk finds.
// Run it with -race.
func TestClonesShareRegionsConcurrently(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := handFatTree(8)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				g := ft.Clone()
				for _, hops := range []int{1, 2} {
					for _, id := range want.RackNodes() {
						if got, w := g.RackNeighbors(id, hops), want.RackNeighbors(id, hops); !slices.Equal(got, w) {
							t.Errorf("rack %d at %d hops: %v on a clone, %v walked", id, hops, got, w)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
