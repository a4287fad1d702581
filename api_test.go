package sheriff

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden")

const apiGolden = "testdata/api.golden"

// TestAPIRecord holds testdata/api.golden, the record of what the module
// exports and what its binaries read: one line for every exported
// package-level identifier of every non-test package with its signature,
// every exported method, every exported field of an exported struct (the
// fields of *Options, *Config, *Params and Plan structs as option lines),
// and every flag of sheriffd and of each sheriffsim mode. Any difference
// fails; go test -run TestAPIRecord -update . rewrites the file, so that
// every added, removed or changed name is a line of the change's diff.
func TestAPIRecord(t *testing.T) {
	got := apiRecord(t)
	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(apiGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (go test -run TestAPIRecord -update . writes it)", err)
	}
	if want := string(raw); got != want {
		t.Errorf("the API differs from %s (rewrite it with go test -run TestAPIRecord -update .):\n%s", apiGolden, lineDiff(want, got))
	}
}

// apiRecord renders the record: a header of counts, then the lines sorted.
func apiRecord(t *testing.T) string {
	var lines []string
	counts := map[string]int{}
	add := func(pkg, kind, text string) {
		lines = append(lines, pkg+" "+kind+" "+text)
		counts[kind]++
	}
	pkgs := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		files := parseNonTest(t, path)
		if len(files) == 0 {
			return nil
		}
		pkgs++
		pkg := "sheriff"
		if path != "." {
			pkg += "/" + filepath.ToSlash(path)
		}
		for _, f := range files {
			recordFile(f, func(kind, text string) { add(pkg, kind, text) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, kind := range sheriffdFlags(t) {
		add("sheriff/cmd/sheriffd", "flag", "-"+name+" "+kind)
	}
	common, perMode := sheriffsimFlags(t)
	for name, kind := range common {
		add("sheriff/cmd/sheriffsim", "flag", "-"+name+" "+kind)
	}
	for mode, flags := range perMode {
		for name, kind := range flags {
			add("sheriff/cmd/sheriffsim", "flag", "-mode "+mode+" -"+name+" "+kind)
		}
	}
	sort.Strings(lines)
	header := fmt.Sprintf("# %d packages: %d identifiers, %d methods, %d fields (%d options), %d flags",
		pkgs, counts["const"]+counts["var"]+counts["func"]+counts["type"], counts["method"],
		counts["field"]+counts["option"], counts["option"], counts["flag"])
	return header + "\n" + strings.Join(lines, "\n") + "\n"
}

// parseNonTest parses the Go files of dir that are not tests.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// recordFile reports the exported names one file declares.
func recordFile(f *ast.File, add func(kind, text string)) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			sig := decl.Name.Name + signature(decl.Type)
			if decl.Recv == nil {
				add("func", sig)
				continue
			}
			recv := decl.Recv.List[0].Type
			if !ast.IsExported(recvType(recv)) {
				continue
			}
			add("method", "("+typeString(recv)+") "+sig)
		case *ast.GenDecl:
			var last ast.Expr // the type an iota const spec carries on
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					recordType(spec, add)
				case *ast.ValueSpec:
					if spec.Type != nil || len(spec.Values) > 0 {
						last = spec.Type
					}
					for i, n := range spec.Names {
						if n.IsExported() {
							add(decl.Tok.String(), n.Name+valueText(spec, last, i))
						}
					}
				}
			}
		}
	}
}

// valueText is a const or var's type, and a literal value when it has one.
func valueText(spec *ast.ValueSpec, typ ast.Expr, i int) string {
	text := ""
	if typ != nil {
		text = " " + typeString(typ)
	}
	if i < len(spec.Values) {
		switch v := spec.Values[i].(type) {
		case *ast.BasicLit:
			text += " = " + v.Value
		case *ast.UnaryExpr:
			if lit, ok := v.X.(*ast.BasicLit); ok {
				text += " = " + v.Op.String() + lit.Value
			}
		case *ast.CompositeLit:
			if typ == nil && v.Type != nil {
				text = " " + typeString(v.Type)
			}
		}
	}
	return text
}

// recordType reports an exported type, its exported fields (option lines
// for a settings struct) and its interface methods.
func recordType(spec *ast.TypeSpec, add func(kind, text string)) {
	if !spec.Name.IsExported() {
		return
	}
	name := spec.Name.Name
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		add("type", name+" struct")
		kind := "field"
		if n := spec.Name.Name; n == "Plan" || strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Params") {
			kind = "option"
		}
		for _, field := range typ.Fields.List {
			if len(field.Names) == 0 {
				if embedded := recvType(field.Type); ast.IsExported(embedded) {
					add(kind, spec.Name.Name+"."+embedded+" "+typeString(field.Type))
				}
			}
			for _, n := range field.Names {
				if n.IsExported() {
					add(kind, spec.Name.Name+"."+n.Name+" "+typeString(field.Type))
				}
			}
		}
	case *ast.InterfaceType:
		add("type", name+" interface")
		for _, m := range typ.Methods.List {
			for _, n := range m.Names {
				add("method", "("+spec.Name.Name+") "+n.Name+signature(m.Type.(*ast.FuncType)))
			}
			if len(m.Names) == 0 {
				add("method", "("+spec.Name.Name+") embeds "+typeString(m.Type))
			}
		}
	default:
		if spec.Assign.IsValid() {
			add("type", name+" = "+typeString(spec.Type))
		} else {
			add("type", name+" "+typeString(spec.Type))
		}
	}
}

// signature renders a func type's parameter and result types, without
// their names: a renamed parameter changes no caller.
func signature(fn *ast.FuncType) string {
	sig := "(" + fieldTypes(fn.Params) + ")"
	if fn.Results == nil {
		return sig
	}
	results := fieldTypes(fn.Results)
	if len(fn.Results.List) == 1 && len(fn.Results.List[0].Names) <= 1 {
		return sig + " " + results
	}
	return sig + " (" + results + ")"
}

// fieldTypes lists a field list's types, one for each name.
func fieldTypes(list *ast.FieldList) string {
	if list == nil {
		return ""
	}
	var parts []string
	for _, f := range list.List {
		for range max(len(f.Names), 1) {
			parts = append(parts, typeString(f.Type))
		}
	}
	return strings.Join(parts, ", ")
}

// typeString renders a type expression on one line. It knows the forms
// the module's exported API uses; a new form panics, naming the node, so
// that the record never renders two different types alike.
func typeString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return typeString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + typeString(e.X)
	case *ast.Ellipsis:
		return "..." + typeString(e.Elt)
	case *ast.ArrayType:
		if e.Len == nil {
			return "[]" + typeString(e.Elt)
		}
		return "[" + typeString(e.Len) + "]" + typeString(e.Elt)
	case *ast.BasicLit:
		return e.Value
	case *ast.MapType:
		return "map[" + typeString(e.Key) + "]" + typeString(e.Value)
	case *ast.FuncType:
		return "func" + signature(e)
	}
	panic(fmt.Sprintf("typeString: no rendering for %T", expr))
}

// lineDiff lists the lines only one side has, - for want and + for got.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	return strings.Join(out, "\n")
}
