// Package alloctest counts what a test's window allocates and holds the
// count to its line in testdata/allocs.golden. It is the one place in the
// tests that counts: TestOnlyAllocTestCounts fails on testing.AllocsPerRun,
// debug.SetGCPercent, runtime.ReadMemStats or a Mallocs read in any other
// test file (cmd/sheriffd's read of the live heap's size is no contract and
// exempt). Only tests import it.
//
// A record line is
//
//	package test window measure [=]bound [=window±slack] [norace]
//
// keyed by the test's package directory, its t.Name() and the window Count
// is handed. The counting rules:
//
//   - Every window runs at GOMAXPROCS(1) with the collector off, after a
//     collection that finishes any cycle under way and hands free memory
//     back to the OS. At two Ps the Go runtime allocates for itself in a
//     window: ReadMemStats' restart of the world can wake the idle P and
//     make a thread for it (five objects: the m, its g0 and gsignal, two
//     profiling stacks), and the background scavenger can go to sleep on a
//     P whose timer heap is full, as one that never held a timer is, and
//     grow it (one object). One P has no idle P to wake.
//   - allocs counts the objects one call of the window allocates
//     (MemStats.Mallocs), exactly.
//   - allocs/N is testing.AllocsPerRun's count: the window runs once to warm
//     and then N times, and the count is the objects per run, the mean
//     truncated to an integer. A stray runtime allocation in N runs can read
//     0.
//   - bytes/N is the same for the bytes allocated (MemStats.TotalAlloc).
//   - retained is the bytes by which one call grows the live heap, each side
//     read after two collections.
//   - A bound B holds the count to at most B; =B holds it to exactly B.
//     =W±s also holds it within s of what window W of the same test counted
//     before it.
//   - norace: under the race detector (-race in the build's settings), whose
//     instrumentation allocates and whose sync.Pool drops items at random,
//     the count is logged but not held.
//
// When a count breaks its line, the failure lists the stacks that allocated
// in the window, from a heap profile that sampled every allocation while it
// ran (MemProfileRate = 1). A tiny allocation packed into an earlier one's
// 16-byte block is counted but not sampled.
package alloctest

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// record is the record's path from the module root.
const record = "testdata/allocs.golden"

// contract is one record line.
type contract struct {
	text, test, window string // text: the line's fields
	measure, ref       string // measure: allocs, bytes or retained; ref: the W of =W±s
	line, runs         int    // runs: the N of allocs/N and bytes/N; 0 for one call
	bound, slack       uint64
	exact, norace      bool
}

var (
	loadOnce  sync.Once
	root, pkg string              // the module root; the test's package directory in it
	contracts map[string]contract // by package, test and window
	loadErr   error
	race      bool     // whether the race detector is on
	counts    sync.Map // uint64 by test and window, for =W±s
)

// Count runs fn as the window the record names for t and window, and fails
// t when the count breaks the record's line.
func Count(t testing.TB, window string, fn func()) {
	t.Helper()
	loadOnce.Do(load)
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	c, ok := contracts[pkg+" "+t.Name()+" "+window]
	if !ok {
		t.Fatalf("%s window %q has no line in %s", t.Name(), window, record)
	}
	c.hold(t, fn)
}

// load reads from the build whether the race detector is on, and finds the
// module root above the working directory, the test's package in it and the
// record.
func load() {
	info, _ := debug.ReadBuildInfo()
	race = info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
	wd, err := os.Getwd()
	for root = wd; err == nil; root = filepath.Dir(root) {
		if _, err = os.Stat(filepath.Join(root, "go.mod")); err == nil || root == filepath.Dir(root) {
			break
		}
		err = nil
	}
	if err == nil {
		pkg, _ = filepath.Rel(root, wd) // root is wd or above it
		pkg = filepath.ToSlash(pkg)
		contracts, err = read(filepath.Join(root, record))
	}
	loadErr = err
}

// read parses a record; blank lines and lines starting with # are notes.
func read(path string) (map[string]contract, error) {
	data, err := os.ReadFile(path)
	list := make(map[string]contract)
	for i, text := range strings.Split(string(data), "\n") {
		f := strings.Fields(text)
		if err != nil || len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		c, key := contract{text: strings.Join(f, " "), line: i + 1}, strings.Join(f[:min(len(f), 3)], " ")
		if _, dup := list[key]; dup {
			err = errors.New("a second line for the window")
		} else if err = errors.New("want package, test, window, measure and bound"); len(f) >= 5 {
			c.test, c.window = f[1], f[2]
			err = c.parse(f[3], f[4], f[5:])
		}
		if err != nil {
			err = fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		list[key] = c
	}
	return list, err
}

func (c *contract) parse(measure, bound string, extra []string) (err error) {
	m, runs, perRun := strings.Cut(measure, "/")
	if c.measure = m; perRun {
		c.runs, err = strconv.Atoi(runs)
	}
	if err != nil || perRun && c.runs < 1 || !(m == "allocs" || m == "bytes" && perRun || m == "retained" && !perRun) {
		return fmt.Errorf("measure %q: want allocs, allocs/N, bytes/N or retained", measure)
	}
	bound, c.exact = strings.CutPrefix(bound, "=")
	if c.bound, err = strconv.ParseUint(bound, 10, 64); err != nil {
		return err
	}
	for _, f := range extra {
		ref, slack, ok := strings.Cut(strings.TrimPrefix(f, "="), "±")
		switch {
		case f == "norace":
			c.norace = true
		case strings.HasPrefix(f, "=") && ok:
			c.ref = ref
			if c.slack, err = strconv.ParseUint(slack, 10, 64); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%q: want =window±slack or norace", f)
		}
	}
	return nil
}

// hold counts fn by c's measure and fails t when the count breaks c.
func (c contract) hold(t testing.TB, fn func()) uint64 {
	t.Helper()
	v, counted := counts.Load(t.Name() + " " + c.ref)
	ref, _ := v.(uint64)
	if c.ref != "" && !counted {
		t.Fatalf("%s window %q: window %q was not counted before it", c.test, c.window, c.ref)
	}
	n, where := c.count(fn, func(n uint64) bool {
		return race && c.norace || n <= c.bound && (!c.exact || n == c.bound) && (c.ref == "" || max(n, ref)-min(n, ref) <= c.slack)
	})
	counts.Store(t.Name()+" "+c.window, n)
	msg := fmt.Sprintf("%s window %q counted %d against %s:%d, %q", c.test, c.window, n, record, c.line, c.text)
	if c.ref != "" {
		msg += fmt.Sprintf(", where window %q counted %d", c.ref, ref)
	}
	switch {
	case race && c.norace:
		t.Logf("%s; not held under the race detector", msg)
	case where != "":
		t.Errorf("%s\n%s", msg, where)
	default:
		t.Logf("%s", msg)
	}
	return n
}

// count runs fn by c's measure. When held refuses the count, it also
// returns the stacks that allocated in the window.
func (c contract) count(fn func(), held func(uint64) bool) (n uint64, where string) {
	runs := max(c.runs, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if c.runs > 0 {
		fn()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	debug.FreeOSMemory() // also publishes the heap profile to date
	before := memProfile()
	var heap0 uint64
	if c.measure == "retained" {
		heap0 = live() // after before is made, so that both readings hold it
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	switch n = (m1.Mallocs - m0.Mallocs) / uint64(runs); c.measure {
	case "bytes":
		n = (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
	case "retained":
		n = max(live(), heap0) - heap0
	}
	if held(n) {
		return n, ""
	}
	return n, stacks(before, runs)
}

func memProfile() []runtime.MemProfileRecord {
	for {
		n, _ := runtime.MemProfile(nil, true)
		p := make([]runtime.MemProfileRecord, n+64)
		if n, ok := runtime.MemProfile(p, true); ok {
			return p[:n]
		}
	}
}

// stacks lists what was allocated since before, by stack, most objects
// first. Nothing allocates between the window and the collection that
// publishes its samples.
func stacks(before []runtime.MemProfileRecord, runs int) string {
	runtime.GC()
	had := make(map[[32]uintptr]runtime.MemProfileRecord, len(before))
	for _, r := range before {
		had[r.Stack0] = r
	}
	var sites []runtime.MemProfileRecord
	for _, r := range memProfile() {
		top, _ := runtime.CallersFrames(r.Stack()).Next() // before's own copy is not the window's
		if r.AllocObjects -= had[r.Stack0].AllocObjects; r.AllocObjects > 0 && top.Function != "sheriff/internal/alloctest.memProfile" {
			r.AllocBytes -= had[r.Stack0].AllocBytes
			sites = append(sites, r)
		}
	}
	slices.SortFunc(sites, func(a, b runtime.MemProfileRecord) int { return cmp.Compare(b.AllocObjects, a.AllocObjects) })
	var b strings.Builder
	fmt.Fprintf(&b, "allocating stacks in the window's %d run(s):", runs)
	for _, s := range sites {
		fmt.Fprintf(&b, "\n%d objects, %d B:", s.AllocObjects, s.AllocBytes)
		for frames, more := runtime.CallersFrames(s.Stack()), true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); f.Function == "sheriff/internal/alloctest.contract.count" {
				break // the window's caller
			}
			fmt.Fprintf(&b, "\n\t%s (%s:%d)", f.Function, f.File, f.Line)
		}
	}
	return b.String()
}
