package main

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/ingest"
	"sheriff/internal/sim"
	"sheriff/internal/timeseries"
)

// statePeriods is N: each row of TestStateFlatInRunLength runs the daemon
// for N periods and again for 4N, and holds the two against each other.
const statePeriods = 1000

// stateHeapSlack is how many more live heap bytes a daemon may hold after
// 4N periods than after N. It covers state bounded by a high-water mark,
// not by run length: scratch sized by the busiest period so far. Anything
// that keeps more than 44 bytes a period exceeds it over the 3N periods
// between the samples.
const stateHeapSlack = 128 << 10

// daemonSample is what one run of the daemon leaves to compare: the live
// heap and goroutine count at its last period, and the snapshot it wrote
// at shutdown.
type daemonSample struct {
	heap       uint64
	goroutines int
	snapshot   string
}

// sampleDaemon runs the daemon for the given periods with -snapshot and
// -trace in a fresh directory and samples its state at the last period.
// The heap is read after two collections, so that sync.Pool's victim
// cache holds nothing.
func sampleDaemon(t *testing.T, args []string, periods int) daemonSample {
	t.Helper()
	dir := t.TempDir()
	s := daemonSample{snapshot: filepath.Join(dir, "daemon.snap")}
	args = append([]string{"-steps", strconv.Itoa(periods), "-snapshot", s.snapshot,
		"-snapshot-every", strconv.Itoa(statePeriods / 4), "-trace", filepath.Join(dir, "trace.jsonl")}, args...)
	tap := func(step int, _ []ingest.Update) {
		if step != periods {
			return
		}
		goruntime.GC()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		s.heap = ms.HeapAlloc
		s.goroutines = goruntime.NumGoroutine()
	}
	if err := runTapped(args, io.Discard, tap); err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshotColumns decodes a daemon snapshot and counts its columns
// (countColumns).
func snapshotColumns(t *testing.T, path string) (daemonState, map[string]int) {
	t.Helper()
	st, _ := readState(t, path)
	cols := make(map[string]int)
	countColumns(reflect.ValueOf(st), "", cols)
	return st, cols
}

// countColumns records the element count of every column under v by its
// JSON path: a slice's length, or a timeseries.Bits column's floats. A
// slice of rows (structs, or decoded JSON objects) is walked row by row;
// a slice of slices (the deep pools' packed models, one a rack) counts its
// rows only. Scalars are not columns: a step counter's digits may grow,
// its count cannot.
func countColumns(v reflect.Value, path string, out map[string]int) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			countColumns(v.Elem(), path, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			countColumns(v.Field(i), path+"."+name, out)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			countColumns(v.MapIndex(k), fmt.Sprintf("%s.%v", path, k), out)
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(timeseries.Bits(nil)) {
			out[path] = v.Len() / 8
			return
		}
		out[path] = v.Len()
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Pointer, reflect.Interface, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				countColumns(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
			}
		}
	}
}

// TestStateFlatInRunLength: a long-lived daemon holds state per VM, rack
// and link, not per period. Run for N and for 4N periods, it must end with
// the same goroutines, a live heap within stateHeapSlack, and a snapshot
// whose every column has as many elements, except the live flows (which
// come and go with placements: at most one per dependency pair, each
// loading at most every link, so the flat path column holds at most a
// node count a pair). Under -deep that holds each fitted rack's pool in
// fixed state: the deep shape and state columns, which hold every pool's
// refit window and folds, are as long after 4N periods as after N.
func TestStateFlatInRunLength(t *testing.T) {
	for _, row := range []struct {
		name string
		deep bool
		args []string
	}{
		{"fat-tree-4", false, []string{"-topology", "fat-tree", "-size", "4"}},
		{"fat-tree-4-deep", true, []string{"-topology", "fat-tree", "-size", "4", "-deep"}},
		{"bcube-4", false, []string{"-topology", "bcube", "-size", "4"}},
		{"bcube-4-deep", true, []string{"-topology", "bcube", "-size", "4", "-deep"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			short := sampleDaemon(t, row.args, statePeriods)
			long := sampleDaemon(t, row.args, 4*statePeriods)
			grown := int64(long.heap) - int64(short.heap)
			t.Logf("%d -> %d periods: live heap %d -> %d bytes (%+d), goroutines %d -> %d",
				statePeriods, 4*statePeriods, short.heap, long.heap, grown, short.goroutines, long.goroutines)
			if long.goroutines != short.goroutines {
				t.Errorf("goroutines %d after %d periods, %d after %d", short.goroutines, statePeriods, long.goroutines, 4*statePeriods)
			}
			if grown > stateHeapSlack {
				t.Errorf("live heap grew %d bytes from %d to %d periods, want at most %d", grown, statePeriods, 4*statePeriods, stateHeapSlack)
			}

			st, longCols := snapshotColumns(t, long.snapshot)
			_, shortCols := snapshotColumns(t, short.snapshot)
			cluster, _, err := sim.BuildCluster(st.Config)
			if err != nil {
				t.Fatal(err)
			}
			pairs, links, nodes := longCols[".runtime.cluster.deps"], cluster.Graph.NumEdges(), cluster.Graph.NumNodes()
			fitted := 0
			if st.Runtime.Deep != nil {
				for _, m := range st.Runtime.Deep.Models {
					if m != nil {
						fitted++
					}
				}
			}
			for p, n := range longCols {
				m, ok := shortCols[p]
				switch {
				case !ok:
					t.Errorf("%s: absent after %d periods, %d elements after %d", p, statePeriods, n, 4*statePeriods)
				case p == ".runtime.flows.flows.path":
					if max(m, n) > pairs*nodes {
						t.Errorf("%s: %d -> %d path nodes, more than the %d dependency pairs' %d nodes each", p, m, n, pairs, nodes)
					}
				case p == ".runtime.flow_pairs" || strings.HasPrefix(p, ".runtime.flows.flows."):
					if max(m, n) > pairs {
						t.Errorf("%s: %d -> %d live flows, more than the %d dependency pairs", p, m, n, pairs)
					}
				case strings.HasPrefix(p, ".runtime.flows.loads."):
					if max(m, n) > links {
						t.Errorf("%s: %d -> %d loaded links, more than the fabric's %d", p, m, n, links)
					}
				case n != m:
					t.Errorf("%s: %d elements after %d periods, %d after %d", p, m, statePeriods, n, 4*statePeriods)
				}
			}
			for p := range shortCols {
				if _, ok := longCols[p]; !ok {
					t.Errorf("%s: absent after %d periods, present after %d", p, 4*statePeriods, statePeriods)
				}
			}
			if row.deep && fitted == 0 {
				t.Error("no rack's deep pool was fitted")
			}
		})
	}
}
