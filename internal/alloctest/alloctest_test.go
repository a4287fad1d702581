package alloctest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// fakeTB takes what the helper reports instead of failing the test.
type fakeTB struct {
	testing.TB
	errors []string
}

func (f *fakeTB) Helper()                     {}
func (f *fakeTB) Name() string                { return "TestFake" }
func (f *fakeTB) Logf(string, ...any)         {}
func (f *fakeTB) Errorf(msg string, a ...any) { f.errors = append(f.errors, fmt.Sprintf(msg, a...)) }

var sink *[64]byte

//go:noinline
func allocate(k int) {
	for i := 0; i < k; i++ {
		sink = new([64]byte)
	}
}

// TestCountReadsTheWindow: a window that makes k 64-byte objects reads k
// by each count measure and 64k bytes by bytes/N, and at its exact bound
// reports nothing; over its bound, under an exact one, or too far from the
// window its line names, it fails naming the function that allocated.
func TestCountReadsTheWindow(t *testing.T) {
	for _, k := range []uint64{0, 1, 7} {
		for _, c := range []contract{{measure: "allocs", bound: k}, {measure: "allocs", runs: 20, bound: k}, {measure: "bytes", runs: 20, bound: 64 * k}} {
			tb := &fakeTB{TB: t}
			c.exact = true
			if got := c.hold(tb, func() { allocate(int(k)) }); got != c.bound || len(tb.errors) != 0 {
				t.Errorf("%d objects by %s/%d: read %d, want %d; reported %q", k, c.measure, c.runs, got, c.bound, tb.errors)
			}
		}
	}
	tb := &fakeTB{TB: t}
	contract{window: "ref", measure: "allocs", bound: 10}.hold(tb, func() {})
	for _, c := range []contract{{measure: "allocs", runs: 10}, {measure: "allocs", bound: 4, exact: true}, {measure: "allocs", bound: 10, ref: "ref", slack: 1}} {
		c.hold(tb, func() { allocate(3) })
	}
	for _, err := range tb.errors {
		if !strings.Contains(err, "alloctest.allocate") {
			t.Errorf("a failing window reported %q, want alloctest.allocate named", err)
		}
	}
	if len(tb.errors) != 3 {
		t.Errorf("a window over its bound, one under its exact bound and one off its reference reported %d failures, want 3", len(tb.errors))
	}
}

// TestOnlyAllocTestCounts keeps the counting here and the record whole.
// Outside bench/ and this package, no test file calls testing.AllocsPerRun,
// debug.SetGCPercent or runtime.ReadMemStats or reads a Mallocs field
// (cmd/sheriffd/state_test.go reads the live heap's size, which is no
// contract); Count is called only from a Test function with a line in the
// record; every test the record names calls it; and no other test shares a
// recorded test's name, so that running the record's names runs its
// contracts alone.
func TestOnlyAllocTestCounts(t *testing.T) {
	if loadOnce.Do(load); loadErr != nil {
		t.Fatal(loadErr)
	}
	banned := map[string]string{"testing": "AllocsPerRun", "runtime/debug": "SetGCPercent", "runtime": "ReadMemStats"}
	tests := map[string][]string{} // the packages of every Test function, by name
	counts := map[string]bool{}    // package and name of the ones that call Count
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, path)
		rel, dir := filepath.ToSlash(rel), filepath.ToSlash(filepath.Dir(rel))
		if err != nil {
			return err
		}
		if d.IsDir() && (rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") || dir == "internal/alloctest" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imported := map[string]string{} // import path by local name
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if imported[p[strings.LastIndex(p, "/")+1:]] = p; spec.Name != nil {
				imported[spec.Name.Name] = p
			}
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			test := fn != nil && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test")
			if test {
				tests[fn.Name.Name] = append(tests[fn.Name.Name], dir)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				path, at := "", fmt.Sprintf("%s:%d", rel, fset.Position(sel.Pos()).Line)
				if x, ok := sel.X.(*ast.Ident); ok {
					path = imported[x.Name]
				}
				switch name := sel.Sel.Name; {
				case name == "Mallocs" || banned[path] == name && rel+" "+name != "cmd/sheriffd/state_test.go ReadMemStats":
					t.Errorf("%s uses %s.%s: count through alloctest.Count", at, path, name)
				case path == "sheriff/internal/alloctest" && name == "Count" && !test:
					t.Errorf("%s calls alloctest.Count outside a Test function", at)
				case path == "sheriff/internal/alloctest" && name == "Count":
					counts[dir+" "+fn.Name.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := func(key string) uint64 { return contracts[key].bound }
	for _, seed := range []string{"1", "7"} {
		got := bound("internal/runtime TestSnapshotWindowAllocs/seed-" + seed + " periods")
		if want := 32 * (bound("internal/runtime TestSnapshotAllocsFlatInFabric bcube4") + bound("internal/ingest TestSnapshotAllocsFlatInRacks float-bcube4")); got != want {
			t.Errorf("TestSnapshotWindowAllocs/seed-%s is bound at %d, want its 32 snapshots × the runtime's and ingest's, %d", seed, got, want)
		}
	}
	recorded := map[string]bool{}
	for key := range contracts {
		f := strings.Fields(key)
		recorded[f[0]+" "+strings.Split(f[1], "/")[0]] = true
	}
	for tc := range counts {
		if !recorded[tc] {
			t.Errorf("%s calls alloctest.Count and has no line in %s", tc, record)
		}
	}
	for tc := range recorded {
		pkg, name, _ := strings.Cut(tc, " ")
		for _, dir := range append(tests[name], pkg) {
			if !counts[dir+" "+name] {
				t.Errorf("%s names %s, and %s %s counts nothing through alloctest.Count", record, tc, dir, name)
			}
		}
	}
}
