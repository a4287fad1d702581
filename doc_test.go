package sheriff

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// codeSpan is one backticked span on a line.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// qualified is pkg.Name or pkg.Type.Name inside a span; Type may be
	// written (*Type), as in quant.(*Holt).Observe.
	qualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.(?:\(\*([A-Za-z_]\w*)\)|([A-Za-z_]\w*))(?:\.([A-Za-z_]\w*))?`)
	// treePath is an internal/NAME or cmd/NAME directory mention.
	treePath = regexp.MustCompile(`\b(?:internal|cmd)/\w+`)
)

// TestDocIdentifiersResolve keeps the documents honest about the code:
// every backticked pkg.Name or pkg.Type.Name whose pkg is a directory under
// internal/ or cmd/ must be declared in that package's Go files (test files
// included, so Example and Benchmark names count), and every internal/NAME
// or cmd/NAME path must exist. A bare pkg.Name may name a method or a field
// as well as a package-level declaration. Names that BENCHMARK.json
// declares as metrics (ingest.drain_s) are metrics, not identifiers.
func TestDocIdentifiersResolve(t *testing.T) {
	metrics := benchmarkMetrics(t)
	pkgs := map[string]*declSet{}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				pkgs[e.Name()] = parseDecls(t, filepath.Join(root, e.Name()))
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			for _, path := range treePath.FindAllString(line, -1) {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d: %s does not exist", doc, n+1, path)
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range qualified.FindAllStringSubmatchIndex(span, -1) {
					if m[0] > 0 && strings.ContainsAny(span[m[0]-1:m[0]], "./") {
						continue // a file or import path, not a qualified name
					}
					pkg, name := span[m[2]:m[3]], ""
					if m[4] >= 0 {
						name = span[m[4]:m[5]]
					} else {
						name = span[m[6]:m[7]]
					}
					member := ""
					if m[8] >= 0 {
						member = span[m[8]:m[9]]
					}
					decls, ok := pkgs[pkg]
					if !ok || name == "go" || metrics[pkg+"."+name] {
						continue
					}
					if !decls.resolves(name, member) {
						t.Errorf("%s:%d: %s does not resolve in %s", doc, n+1, span[m[0]:m[1]], pkg)
					}
				}
			}
		}
	}
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		out[m.Name] = true
	}
	return out
}

// declSet is what one package declares: its package-level names, and each
// type's methods and fields.
type declSet struct {
	top     map[string]bool
	members map[string]map[string]bool
	any     map[string]bool // every method and field name, of any type
}

// resolves reports whether name (and, when set, name.member) is declared.
func (d *declSet) resolves(name, member string) bool {
	if member == "" {
		return d.top[name] || d.any[name]
	}
	return d.members[name][member]
}

func (d *declSet) addMember(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	d.members[typ][name] = true
	d.any[name] = true
}

// parseDecls collects the declarations of every Go file in dir.
func parseDecls(t *testing.T, dir string) *declSet {
	d := &declSet{top: map[string]bool{}, members: map[string]map[string]bool{}, any: map[string]bool{}}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
				} else {
					d.addMember(recvType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						d.addFields(spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// addFields records a struct type's fields and an interface's methods.
func (d *declSet) addFields(typ string, expr ast.Expr) {
	var list *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		list = expr.Fields
	case *ast.InterfaceType:
		list = expr.Methods
	default:
		return
	}
	for _, field := range list.List {
		for _, n := range field.Names {
			d.addMember(typ, n.Name)
		}
		if len(field.Names) == 0 { // embedded: the field is named after its type
			if name := recvType(field.Type); name != "" {
				d.addMember(typ, name)
			}
		}
	}
}

// recvType names the type of a receiver or embedded field: T, *T, pkg.T.
func recvType(expr ast.Expr) string {
	switch expr := expr.(type) {
	case *ast.Ident:
		return expr.Name
	case *ast.StarExpr:
		return recvType(expr.X)
	case *ast.SelectorExpr:
		return expr.Sel.Name
	}
	return ""
}
