package sheriff

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const unlinkedGolden = "testdata/unlinked.golden"

// productBinaries are the programs that make up the product: the daemon,
// the offline command, the benchmark harness and the examples.
var productBinaries = []string{
	"cmd/sheriffd", "cmd/sheriffsim", "bench",
	"examples/bcube_migration", "examples/fattree_migration", "examples/quickstart",
}

// unlinkedCategories are the reasons a function no product binary links
// may stay: a reference a test compares product output against, a value
// a test reads to assert a product property, or a helper tests use to
// make inputs.
var unlinkedCategories = map[string]bool{"oracle": true, "diagnostic": true, "builder": true}

// TestUnlinkedRecord holds testdata/unlinked.golden, the record of every
// non-test function that none of the product binaries links. It builds
// them with inlining off, so that every function a binary calls keeps
// its symbol, and reads their symbol tables. A function that no binary
// links must have a line there naming its category; a listed function
// that is linked or gone fails too. The test-support packages
// internal/alloctest and internal/forecasttest, and bench/'s own code,
// are not recorded.
func TestUnlinkedRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the product binaries")
	}
	linked := linkedSymbols(t)
	var got []string
	for _, fn := range moduleFuncs(t) {
		if !linked(fn.dir, fn.symbol) {
			got = append(got, fn.dir+" "+fn.name)
		}
	}
	raw, err := os.ReadFile(unlinkedGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	want, counts := map[string]bool{}, map[string]int{}
	for i, line := range lines[1:] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || !unlinkedCategories[fields[0]] {
			t.Errorf("%s:%d: want \"CATEGORY DIR FUNC\" with CATEGORY oracle, diagnostic or builder, got %q", unlinkedGolden, i+2, line)
			continue
		}
		want[fields[1]+" "+fields[2]] = true
		counts[fields[0]]++
	}
	for _, fn := range got {
		if !want[fn] {
			t.Errorf("no product binary links %s: delete it, or add a line for it to %s", fn, unlinkedGolden)
		}
		delete(want, fn)
	}
	for fn := range want {
		t.Errorf("%s lists %s, which is linked by a product binary or is gone: delete the line", unlinkedGolden, fn)
	}
	if h := fmt.Sprintf("# %d functions no product binary links: %d oracle, %d diagnostic, %d builder",
		len(got), counts["oracle"], counts["diagnostic"], counts["builder"]); lines[0] != h {
		t.Errorf("%s:1: got %q, want %q", unlinkedGolden, lines[0], h)
	}
}

// moduleFunc is one function declaration and the symbol a binary that
// links it carries.
type moduleFunc struct {
	dir, name, symbol string
}

// moduleFuncs lists every non-test function of the module's packages,
// leaving out bench/ and the test-support packages. Package init
// functions run whenever their package is linked and are left out.
func moduleFuncs(t *testing.T) []moduleFunc {
	var fns []moduleFunc
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch name := d.Name(); {
		case path == ".":
		case name == "bench" || name == "testdata" || strings.HasPrefix(name, "."),
			path == filepath.Join("internal", "alloctest"), path == filepath.Join("internal", "forecasttest"):
			return filepath.SkipDir
		}
		dir := filepath.ToSlash(path)
		for _, f := range parseNonTest(t, path) {
			pkg := "sheriff"
			if f.Name.Name == "main" {
				pkg = "main"
			} else if dir != "." {
				pkg += "/" + dir
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						name = "(*" + recvType(star.X) + ")." + name
					} else {
						name = recvType(recv) + "." + name
					}
				}
				fns = append(fns, moduleFunc{dir: dir, name: name, symbol: pkg + "." + name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

// linkedSymbols builds the product binaries with inlining off and
// returns a test of whether the binaries link a function: a function of
// a main package is looked up in its own binary, any other in all of
// them. Type arguments are cut from the symbols, so a generic function
// counts as linked when any instance of it is.
func linkedSymbols(t *testing.T) func(dir, symbol string) bool {
	out := t.TempDir()
	shared := map[string]bool{}
	mains := map[string]map[string]bool{}
	for _, dir := range productBinaries {
		bin := filepath.Join(out, filepath.Base(dir))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
		build.Dir = dir
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", dir, err, msg)
		}
		nm, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", dir, err)
		}
		own := map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		for sc.Scan() {
			// "address kind name": a name may hold spaces, so it is the rest.
			fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(fields) < 3 || fields[1] != "T" {
				continue
			}
			sym := cutTypeArgs(fields[2])
			if strings.HasPrefix(sym, "main.") {
				own[sym] = true
			} else {
				shared[sym] = true
			}
		}
		mains[dir] = own
	}
	return func(dir, symbol string) bool {
		if strings.HasPrefix(symbol, "main.") {
			return mains[dir][symbol]
		}
		return shared[symbol]
	}
}

// cutTypeArgs removes every bracketed type-argument list from a symbol.
func cutTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
