package flow

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sheriff/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// rerouteGolden is what testdata/reroute_bcube8.golden.json holds: the
// decisions of every FLOWREROUTE pass of the scripted scenario and the
// state they leave. Floats are encoded shortest-round-trip, so equal bytes
// mean equal bits.
type rerouteGolden struct {
	Passes []rerouteGoldenPass `json:"passes"`
	Paths  [][]int             `json:"paths"` // every flow's final path, in ID order
	Loads  []float64           `json:"loads"` // the final load vector, by edge ID
}

type rerouteGoldenPass struct {
	Hot    int     `json:"hot"`
	Target float64 `json:"target"`
	Moved  []int   `json:"moved"`  // flow IDs in the order the pass moved them
	Digest string  `json:"digest"` // of every path and load bit after the pass
}

// encode writes the document one pass a line, so a diff of the file names
// the pass that changed.
func (r *rerouteGolden) encode(t *testing.T) []byte {
	t.Helper()
	compact := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var buf bytes.Buffer
	buf.WriteString("{\"passes\":[\n")
	for i, ps := range r.Passes {
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(compact(ps))
	}
	buf.WriteString("\n],\n\"paths\":")
	buf.Write(compact(r.Paths))
	buf.WriteString(",\n\"loads\":")
	buf.Write(compact(r.Loads))
	buf.WriteString("}\n")
	return buf.Bytes()
}

func stateDigest(n *Network) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, f := range n.flows {
		put(uint64(len(f.path)))
		for _, hop := range f.path {
			put(uint64(hop))
		}
	}
	for _, l := range n.loads() {
		put(math.Float64bits(l))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestRerouteAroundHotGolden pins RerouteAroundHot's decisions bit for bit
// on a scripted BCube(8) scenario recorded before the pass was rebuilt
// around one patched weight vector and target-stopped sweeps. BCube(n,1)
// has no cut vertex, so a switch w is grafted on: it joins servers a and b
// by a short cut that draws group 0 → group 1 traffic through a, w and b,
// and is the only way to a pendant rack p. With w hot that gives, in one
// pass: many same-source flows (from a); sources whose first flow cannot
// leave w (a → p; everything from p) and are asked again after other
// sources' moves shifted the loads; and flows that can. Later passes take
// a server that is both relay and endpoint (the endpoint-exempt branch),
// the hottest native switches, and w again after fresh admissions.
func TestRerouteAroundHotGolden(t *testing.T) {
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := bc.Graph
	a, b := bc.RackIDs[0][0], bc.RackIDs[1][1]
	w := g.AddNode(topology.Switch, "graft", -1, 2)
	p := g.AddNode(topology.Rack, "pendant", -1, 0)
	for _, l := range []struct {
		x, y      int
		cap, dist float64
	}{{a, w, 1, 0.5}, {b, w, 1, 0.5}, {p, w, 1, 1}} {
		if err := g.AddLink(l.x, l.y, l.cap, l.dist); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNetwork(g)
	add := func(src, dst int, rate float64, delaySensitive bool) *Flow {
		t.Helper()
		f, err := n.AddFlow(src, dst, rate, delaySensitive)
		if err != nil {
			t.Fatalf("AddFlow(%d,%d): %v", src, dst, err)
		}
		return f
	}
	var got rerouteGolden
	pass := func(hot int, target float64) []*Flow {
		t.Helper()
		moved := n.RerouteAroundHot(hot, target)
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("pass %d around %d: %v", len(got.Passes), hot, err)
		}
		ids := make([]int, len(moved))
		for i, f := range moved {
			ids[i] = f.ID
		}
		got.Passes = append(got.Passes, rerouteGoldenPass{Hot: hot, Target: target, Moved: ids, Digest: stateDigest(n)})
		return moved
	}
	// The rates order the first pass. Each round: a flow from a that cannot
	// leave w (it leaves a's row complete), two flows of other sources that
	// can (one towards the same server a's next flow goes to, so its move
	// loads one of that flow's equal-length alternatives), then a flow from
	// a that reads the row the first one left.
	var stuckA, fromA []*Flow
	for j := 0; j < 8; j++ {
		r := 0.30 - 0.03*float64(j)
		stuckA = append(stuckA, add(a, p, r, false))
		add(bc.RackIDs[0][1+j%7], bc.RackIDs[1][j], r-0.005, j == 2)
		add(bc.RackIDs[1][(5*j)%8], bc.RackIDs[0][j], r-0.01, false)
		fromA = append(fromA, add(a, bc.RackIDs[1][j], r-0.015, j == 5))
	}
	stuckP := add(p, bc.RackIDs[1][3], 0.28, false)
	add(bc.RackIDs[0][3], p, 0.26, false)
	lateP := add(p, bc.RackIDs[0][6], 0.07, false)
	add(b, a, 0.09, false)
	add(a, b, 0.09, true)
	rng := rand.New(rand.NewSource(16))
	racks := g.Racks()
	background := func(count int) {
		for i := 0; i < count; i++ {
			x, y := racks[rng.Intn(len(racks))], racks[rng.Intn(len(racks))]
			if x != y {
				add(x, y, 0.02+0.2*rng.Float64(), rng.Intn(5) == 0)
			}
		}
	}
	background(60)

	moved := pass(w, 0.05)
	for _, f := range append(stuckA, stuckP, lateP) {
		if slices.Contains(moved, f) {
			t.Fatalf("flow %d to or from the pendant rack left the only switch that reaches it", f.ID)
		}
	}
	later := 0
	for _, f := range fromA {
		if slices.Contains(moved, f) {
			later++
		}
	}
	if later < 4 || len(moved) < 12 {
		t.Fatalf("first pass moved %d flows, %d of them from the stuck source: the scenario no longer revisits a source whose table outlived a failed move", len(moved), later)
	}

	endpoint := 0
	for _, f := range n.FlowsThrough(a) {
		if (f.Src == a || f.Dst == a) && !f.DelaySensitive {
			endpoint++
		}
	}
	if endpoint == 0 {
		t.Fatal("no flow starts or ends at the hot server: the endpoint-exempt branch is not exercised")
	}
	pass(a, 0.1)
	pass(b, 0.2)
	for round := 0; round < 3; round++ {
		hot, maxU := -1, 0.0
		for _, sw := range slices.Concat(bc.Level0IDs, bc.Level1IDs) {
			if u := n.SwitchUtilization(sw); u > maxU {
				hot, maxU = sw, u
			}
		}
		pass(hot, 0.6*maxU)
	}
	background(40)
	for j := 0; j < 8; j++ {
		add(a, bc.RackIDs[1][j], 0.04+0.01*float64(j), false)
	}
	pass(w, 0.5)
	pass(bc.Level0IDs[0], 0.3)
	pass(w, 0.05)

	for _, f := range n.flows {
		got.Paths = append(got.Paths, f.path)
	}
	got.Loads = n.loads()
	enc := got.encode(t)
	file := filepath.Join("testdata", "reroute_bcube8.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var old rerouteGolden
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for i, ps := range got.Passes {
		if i >= len(old.Passes) || ps.Digest != old.Passes[i].Digest {
			t.Fatalf("pass %d around node %d diverges from %s: moved %v", i, ps.Hot, file, ps.Moved)
		}
	}
	t.Fatalf("final paths or loads differ from %s", file)
}
