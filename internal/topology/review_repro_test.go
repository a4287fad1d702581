package topology

import (
	"testing"
	"time"
)

// Zero-weight edges + smallest-predecessor tie rule can create a parent
// cycle, hanging Path reconstruction.
func TestReviewZeroCostParentCycle(t *testing.T) {
	g := NewGraph()
	g.AddNode(Switch, "a", 0, 0) // 0
	g.AddNode(Switch, "b", 0, 0) // 1
	g.AddNode(Switch, "s", 0, 0) // 2 = source
	g.AddLink(2, 0, 10, 5)
	g.AddLink(2, 1, 10, 5)
	g.AddLink(0, 1, 10, 0) // zero-distance link

	done := make(chan []int, 1)
	go func() {
		ms := DijkstraFrom(g, []int{2}, DistanceCost)
		done <- ms.Path(2, 0, nil)
	}()
	select {
	case p := <-done:
		t.Logf("path = %v", p)
	case <-time.After(2 * time.Second):
		t.Fatal("Path(2,0) hung: parent cycle from zero-cost tie rule")
	}
}
