package sheriff

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	// modeFlag is a -mode NAME (or -mode=NAME) on a sheriffsim line.
	modeFlag = regexp.MustCompile(`(?:^|\s)-mode[ =]([\w-]+)`)
	// sheriffdCommand is sheriffd and its arguments, up to the end of the
	// line or a shell separator; cmd/sheriffd/ (a package) has none.
	sheriffdCommand = regexp.MustCompile(`\bsheriffd([^/|;&>#\w][^|;&>#]*)?`)
	// cliFlag is a -flag or --flag, with or without =value.
	cliFlag = regexp.MustCompile("(?:^|[\\s`(])--?([a-z][\\w-]*)")
)

// TestDocIdentifiersResolve keeps the documents honest about the code:
// every backticked pkg.Name or pkg.Type.Name whose pkg is a directory under
// internal/ or cmd/ must be declared in that package's Go files (test files
// included, so Example and Benchmark names count), and every internal/NAME
// or cmd/NAME path must exist. A bare pkg.Name may name a method or a field
// as well as a package-level declaration. Names that BENCHMARK.json
// declares as metrics (ingest.drain_s) are metrics, not identifiers. Every
// sheriffsim -mode NAME in those documents, CI and the verify notes must
// name a mode sheriffsim registers, and every -flag of a sheriffd command
// there must be a flag sheriffd declares (or -h and -help, which every flag
// set takes). A command may wrap: a line that ends in a backslash, or
// leaves a backticked span open, goes on on the next.
func TestDocIdentifiersResolve(t *testing.T) {
	metrics := benchmarkMetrics(t)
	modes := sheriffsimModes(t)
	flags := sheriffdFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range logicalLines(string(raw)) {
			if strings.Contains(line.text, "sheriffsim") {
				for _, m := range modeFlag.FindAllStringSubmatch(line.text, -1) {
					if !modes[m[1]] {
						t.Errorf("%s:%d: sheriffsim has no mode %q", doc, line.n, m[1])
					}
				}
			}
			for _, cmd := range sheriffdCommand.FindAllStringSubmatch(line.text, -1) {
				for _, m := range cliFlag.FindAllStringSubmatch(cmd[1], -1) {
					if _, ok := flags[m[1]]; !ok && m[1] != "h" && m[1] != "help" {
						t.Errorf("%s:%d: sheriffd has no flag -%s", doc, line.n, m[1])
					}
				}
			}
		}
	}
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

// sheriffsimModes returns the names in sheriffsim's mode table.
func sheriffsimModes(t *testing.T) map[string]bool {
	names := map[string]bool{}
	for _, m := range sheriffsimTable(t, parseMain(t, "cmd/sheriffsim/main.go")) {
		names[m.name] = true
	}
	return names
}

// simMode is one entry of sheriffsim's mode table: its name and the
// function that declares its flags.
type simMode struct{ name, flags string }

// sheriffsimTable reads sheriffsim's mode table: the first field of each
// entry of its modes variable, and the last, its flags function.
func sheriffsimTable(t *testing.T, f *ast.File) []simMode {
	var table []simMode
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.VAR {
			continue
		}
		for _, spec := range gen.Specs {
			spec := spec.(*ast.ValueSpec)
			if len(spec.Names) != 1 || spec.Names[0].Name != "modes" || len(spec.Values) != 1 {
				continue
			}
			for _, elt := range spec.Values[0].(*ast.CompositeLit).Elts {
				fields := elt.(*ast.CompositeLit).Elts
				name, err := strconv.Unquote(fields[0].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				table = append(table, simMode{name, fields[len(fields)-1].(*ast.Ident).Name})
			}
		}
	}
	if len(table) == 0 {
		t.Fatal("no modes table in cmd/sheriffsim/main.go")
	}
	return table
}

// sheriffsimFlags returns the flags run declares for every sheriffsim mode,
// and each mode's own: those its flags function declares, also through
// the functions it hands fs to.
func sheriffsimFlags(t *testing.T) (common map[string]string, perMode map[string]map[string]string) {
	f := parseMain(t, "cmd/sheriffsim/main.go")
	funcs := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
			funcs[fn.Name.Name] = fn
		}
	}
	common = map[string]string{}
	fsFlags(funcs["run"], nil, common)
	perMode = map[string]map[string]string{}
	for _, m := range sheriffsimTable(t, f) {
		flags := map[string]string{}
		fsFlags(funcs[m.flags], funcs, flags)
		if len(flags) == 0 {
			t.Fatalf("sheriffsim mode %s declares no flags in %s", m.name, m.flags)
		}
		perMode[m.name] = flags
	}
	return common, perMode
}

// sheriffdFlags returns the flags cmd/sheriffd declares: the name of each
// fs.Kind("name", ...) call in its main.go, and its kind.
func sheriffdFlags(t *testing.T) map[string]string {
	flags := map[string]string{}
	fsFlags(parseMain(t, "cmd/sheriffd/main.go"), nil, flags)
	if len(flags) == 0 {
		t.Fatal("no fs flag declarations in cmd/sheriffd/main.go")
	}
	return flags
}

// parseMain parses one file of a command.
func parseMain(t *testing.T, path string) *ast.File {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fsFlags adds to into each flag an fs.Kind("name", ...) call under n
// declares, name → kind (int for fs.Int and fs.IntVar), and follows every
// call of a function in funcs that is handed fs.
func fsFlags(n ast.Node, funcs map[string]*ast.FuncDecl, into map[string]string) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); !ok || x.Name != "fs" {
				return true
			}
			at := 0
			if strings.HasSuffix(fun.Sel.Name, "Var") {
				at = 1 // fs.IntVar(&v, "name", ...)
			}
			if len(call.Args) <= at {
				return true
			}
			if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					into[name] = strings.ToLower(strings.TrimSuffix(fun.Sel.Name, "Var"))
				}
			}
		case *ast.Ident:
			callee, ok := funcs[fun.Name]
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && id.Name == "fs" {
					fsFlags(callee, funcs, into)
					break
				}
			}
		}
		return true
	})
}

// docLine is one line as a reader sees it, numbered by its first line.
type docLine struct {
	n    int
	text string
}

// logicalLines joins a document's wrapped lines: one that ends in a
// backslash goes on on the next, as does one that leaves a backticked span
// open. A code fence's backticks open no span.
func logicalLines(raw string) []docLine {
	var out []docLine
	cur := docLine{}
	for n, line := range strings.Split(raw, "\n") {
		if cur.n == 0 {
			cur = docLine{n: n + 1, text: line}
		} else {
			cur.text += " " + strings.TrimSpace(line)
		}
		if strings.HasSuffix(cur.text, `\`) {
			cur.text = strings.TrimSuffix(cur.text, `\`)
			continue
		}
		if strings.Count(cur.text, "`")%2 == 1 && !strings.HasPrefix(strings.TrimSpace(cur.text), "```") {
			continue
		}
		out = append(out, cur)
		cur = docLine{}
	}
	if cur.n != 0 {
		out = append(out, cur)
	}
	return out
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
