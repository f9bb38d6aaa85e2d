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
	"slices"
	"strings"
	"testing"
)

// TestNoTestOnlyDeclarations fails for every package-level declaration
// outside bench/ that no non-test code references: a function, method,
// type, variable or constant that only tests reach is deleted, or moved
// into the test that uses it as an oracle.
func TestNoTestOnlyDeclarations(t *testing.T) {
	dead, err := deadDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: no non-test code references it", d)
	}
}

// TestDeadDeclsFixture is the scan's own check on the fixture module
// testdata/deadcode: of its four declarations below, exactly the one that
// only a test calls is reported.
func TestDeadDeclsFixture(t *testing.T) {
	dead, err := deadDecls(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
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
// declaration. main, init, methods that satisfy an interface and
// deadExempt/deadExemptPaths are allowed.
func deadDecls(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
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
	if err != nil {
		return nil, err
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
	type finding struct {
		file string
		line int
		name string
	}
	var dead []finding
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
				if used[obj] || obj.Name() == "_" || deadExempt[name] != "" {
					continue
				}
				dead = append(dead, finding{file, fset.Position(obj.Pos()).Line, name})
			}
		}
	}
	slices.SortFunc(dead, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.file, b.file), cmp.Compare(a.line, b.line))
	})
	out := make([]string, len(dead))
	for i, d := range dead {
		out[i] = fmt.Sprintf("%s:%d %s", d.file, d.line, d.name)
	}
	return out, nil
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
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
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
