package signguard

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyDeclarations fails for every package-level declaration
// outside bench/ that no non-test code references: a function, method,
// type, variable or constant that only tests reach is deleted, or moved
// into the test that uses it as an oracle. It also fails for a stale
// deadExempt entry, one that names no declaration or one that non-test
// code now references.
func TestNoTestOnlyDeclarations(t *testing.T) {
	dead, stale, err := deadDecls(".", deadExempt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: no non-test code references it", d)
	}
	for _, name := range stale {
		t.Errorf("deadExempt[%q]: names no declaration that only tests reach; delete the entry", name)
	}
}

// TestDeadDeclsFixture is the scan's own check on the fixture module
// testdata/deadcode: of its four declarations below, exactly the one that
// only a test calls is reported.
func TestDeadDeclsFixture(t *testing.T) {
	dead, stale, err := deadDecls(filepath.Join("testdata", "deadcode"), nil)
	if err != nil || len(stale) != 0 {
		t.Fatalf("stale = %q, err = %v", stale, err)
	}
	for _, tc := range []struct {
		decl, why string
		reported  bool
	}{
		{"lib.OnlyTested", "only lib_test.go calls it", true},
		{"lib.Square.Area", "it satisfies lib.Shape, through which main calls it", false},
		{"lib.BenchOnly", "a test under bench/ calls it", false},
		{"lib.Stack.Push", "main calls it on a Stack[float64]", false},
	} {
		t.Run(tc.decl, func(t *testing.T) {
			got := slices.ContainsFunc(dead, func(d string) bool { return strings.HasSuffix(d, " "+tc.decl) })
			if got != tc.reported {
				t.Errorf("reported = %v, want %v: %s", got, tc.reported, tc.why)
			}
		})
	}
	if want := []string{"lib/lib.go:8 lib.OnlyTested"}; !slices.Equal(dead, want) {
		t.Errorf("findings = %q, want %q", dead, want)
	}

	// An exemption silences its finding; one that names a declaration
	// non-test code references, or no declaration at all, is stale.
	dead, stale, err = deadDecls(filepath.Join("testdata", "deadcode"), map[string]string{
		"lib.OnlyTested": "exempt",
		"lib.BenchOnly":  "a bench/ test calls it",
		"lib.Gone":       "no such declaration",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 0 {
		t.Errorf("findings with lib.OnlyTested exempt = %q, want none", dead)
	}
	if want := []string{"lib.BenchOnly", "lib.Gone"}; !slices.Equal(stale, want) {
		t.Errorf("stale exemptions = %q, want %q", stale, want)
	}
}

// deadExempt names the only declarations kept without a non-test
// reference, each with its reason.
var deadExempt = map[string]string{
	"fl.EvaluateASR":          "ROADMAP item 5 decides whether backdoor success is measured or Backdoor leaves the grid",
	"tensor.Equal":            "the tolerance comparator of seven packages' internal tests, which cannot import internal/conformance without an import cycle",
	"codec.Registry.Register": "the seam through which codec's test of its conformance suite injects fake codecs",
}

// deadExemptPaths are files and directories, relative to the module root,
// whose declarations are exempt as a whole: the façade is the public API,
// and internal/conformance is a test library by design.
var deadExemptPaths = []string{"signguard.go", "internal/conformance"}

// deadDecls type-checks every non-test package of the module rooted at root
// (and the test files of packages under a bench/ directory, which count as
// callers) and returns "file:line name" for each package-level declaration
// outside bench/ that has no reference from that code outside its own
// declaration. main, init, methods that satisfy an interface, the names
// exempt lists and deadExemptPaths are allowed. stale lists, sorted, the
// exempt names that allowed nothing.
func deadDecls(root string, exempt map[string]string) (dead, stale []string, err error) {
	fset, pkgs, err := loadModule(root)
	if err != nil {
		return nil, nil, err
	}

	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if blankAssertion(decl) {
					continue // var _ I = (*T)(nil) checks T, it does not use it
				}
				own := declared(p.info, decl)
				if fd, ok := decl.(*ast.FuncDecl); ok {
					decl = &ast.FuncDecl{Type: fd.Type, Body: fd.Body} // the receiver names the type, it does not use it
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil && !own[obj] {
							used[obj] = true
						}
					}
					return true
				})
			}
		}
	}

	ifaces := interfacesByMethod(pkgs)
	var found []finding
	exempted := map[string]bool{}
	for _, p := range pkgs {
		if p.bench {
			continue
		}
		for _, f := range p.files {
			file, _ := filepath.Rel(root, fset.Position(f.Pos()).Filename)
			file = filepath.ToSlash(file)
			if exemptPath(file) {
				continue
			}
			for obj := range declared(p.info, f.Decls...) {
				name := p.types.Name() + "." + obj.Name()
				if fn, ok := obj.(*types.Func); ok {
					recv := fn.Type().(*types.Signature).Recv()
					if recv != nil {
						name = p.types.Name() + "." + baseNamed(recv.Type()).Obj().Name() + "." + obj.Name()
					}
					if recv != nil && satisfiesInterface(fn, ifaces) ||
						recv == nil && (obj.Name() == "init" || obj.Name() == "main" && p.types.Name() == "main") {
						continue
					}
				}
				if used[obj] || obj.Name() == "_" {
					continue
				}
				if exempt[name] != "" {
					exempted[name] = true
					continue
				}
				found = append(found, finding{file, fset.Position(obj.Pos()).Line, name})
			}
		}
	}
	for name := range exempt {
		if !exempted[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	return sortedFindings(found), stale, nil
}

// TestNoTestOnlyFields fails for every exported field of a struct declared
// outside bench/, the façade and internal/conformance that no non-test code
// sets: a knob that only tests turn is the constant production already
// uses, and becomes one.
func TestNoTestOnlyFields(t *testing.T) {
	unset, err := unsetFields(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unset {
		t.Errorf("%s: no non-test code sets it", f)
	}
}

// TestUnsetFieldsFixture is the field scan's own check on the fixture
// module: main sets each of lib.Knobs' fields but two in a different way,
// decoding sets the json-tagged one, and only lib_test.go sets the last.
func TestUnsetFieldsFixture(t *testing.T) {
	unset, err := unsetFields(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib/lib.go:33 lib.Knobs.OnlyTestSet"}; !slices.Equal(unset, want) {
		t.Errorf("findings = %q, want %q", unset, want)
	}
}

// unsetFields returns "file:line pkg.Type.Field" for each exported,
// non-embedded field of a package-level struct type (or a struct nested in
// one) declared outside bench/ and deadExemptPaths that the module's
// non-test code never sets. A field is set by a composite-literal key, by
// a positional literal (element types elided or not), by an assignment,
// ++/-- or a range clause whose left-hand side reaches it, by taking its
// address, or — when it carries a json tag — by decoding. An embedded field
// composes its type rather than configuring it, so it is not judged.
func unsetFields(root string) ([]string, error) {
	fset, pkgs, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		// mark records every field on the path of an lvalue: x.A.B = v
		// sets B and, through it, A.
		mark := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						set[sel.Obj().(*types.Var).Origin()] = true
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.(*types.Pointer); ok { // an elided &T
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								set[v.Origin()] = true
							}
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						mark(n.Key)
						mark(n.Value)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []finding
	for _, p := range pkgs {
		if p.bench {
			continue
		}
		for _, f := range p.files {
			file, _ := filepath.Rel(root, fset.Position(f.Pos()).Filename)
			file = filepath.ToSlash(file)
			if exemptPath(file) {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					prefix := p.types.Name() + "." + ts.Name.Name
					var walk func(prefix string, st *ast.StructType)
					walk = func(prefix string, st *ast.StructType) {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								name := prefix + "." + id.Name
								if inner, ok := field.Type.(*ast.StructType); ok {
									walk(name, inner)
								}
								if v, ok := p.info.Defs[id].(*types.Var); ok && id.IsExported() && !set[v] && !jsonTagged(field) {
									unset = append(unset, finding{file, fset.Position(id.Pos()).Line, name})
								}
							}
						}
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						walk(prefix, st)
					}
				}
			}
		}
	}
	return sortedFindings(unset), nil
}

// jsonTagged reports whether the field carries a json struct tag, which
// encoding/json sets when it decodes.
func jsonTagged(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

type finding struct {
	file string
	line int
	name string
}

// sortedFindings renders the findings as "file:line name", ordered by
// file and line.
func sortedFindings(fs []finding) []string {
	slices.SortFunc(fs, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.file, b.file), cmp.Compare(a.line, b.line))
	})
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%s:%d %s", f.file, f.line, f.name)
	}
	return out
}

// loadModule type-checks every non-test package of the module rooted at
// root, plus the test files of packages under a bench/ directory, which
// count as callers and setters.
func loadModule(root string) (*token.FileSet, []*loaded, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*loaded{},
	}
	var pkgs []*loaded
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		rel, _ := filepath.Rel(root, dir)
		p, err := l.load(path.Join(module, filepath.ToSlash(rel)))
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return err
	})
	return fset, pkgs, err
}

// loader type-checks the module's packages from source, once each, and
// resolves every other import through the standard library's source
// importer, so that an object is the same value in every package that uses
// it.
type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	pkgs   map[string]*loaded
}

type loaded struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
	bench bool // under a bench/ directory: its tests are callers too
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err == nil && p == nil {
		err = fmt.Errorf("no Go files for %s", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the module package at path; nil when its
// directory holds no package to check.
func (l *loader) load(path string) (*loaded, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bench := slices.Contains(strings.Split(rel, "/"), "bench")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, tests []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !bench {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if isTest {
			tests = append(tests, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	for _, f := range tests {
		if f.Name.Name == files[0].Name.Name { // an external _test package cannot reach unexported code
			files = append(files, f)
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loaded{types: tp, info: info, files: files, bench: bench}
	l.pkgs[path] = p
	return p, nil
}

// declared returns the package-level objects the declarations introduce.
func declared(info *types.Info, decls ...ast.Decl) map[types.Object]bool {
	own := map[types.Object]bool{}
	add := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			own[obj] = true
		}
	}
	for _, decl := range decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return own
}

// blankAssertion reports whether decl declares only blank variables, the
// compile-time interface checks.
func blankAssertion(decl ast.Decl) bool {
	gd, ok := decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return false
	}
	for _, spec := range gd.Specs {
		for _, id := range spec.(*ast.ValueSpec).Names {
			if id.Name != "_" {
				return false
			}
		}
	}
	return true
}

// origin maps a method of a generic type's instance back to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func baseNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// interfacesByMethod collects, by method name, every named interface the
// checked packages declare or import (transitively, the standard library's
// included), plus error.
func interfacesByMethod(pkgs []*loaded) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
	}
	return byName
}

// satisfiesInterface reports whether fn is the method some interface asks
// its receiver type for, so calls may reach it without naming it.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	named := baseNamed(fn.Type().(*types.Signature).Recv().Type())
	for _, it := range ifaces[fn.Name()] {
		if named.TypeParams().Len() > 0 { // a generic receiver: match by name
			return true
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func exemptPath(file string) bool {
	for _, p := range deadExemptPaths {
		if file == p || strings.HasPrefix(file, p+"/") {
			return true
		}
	}
	return false
}
