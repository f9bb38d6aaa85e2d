package signguard

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocCitations fails for every *.md file that a Go comment, README.md
// or docs/*.md names and the repository does not hold. `make doc-check`
// runs it.
func TestDocCitations(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := filepath.Glob(filepath.Join("docs", "*.md"))
	files = append(append(files, "README.md"), docs...)
	for _, file := range files {
		prose, err := proseLines(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range prose {
			for _, name := range danglingCitations(".", filepath.Dir(file), line.text) {
				t.Errorf("%s:%d cites %s, which does not exist", file, line.n, name)
			}
		}
	}
}

// TestDanglingCitations pins what counts as a citation: a bare or relative
// *.md name, resolved against the citing file's directory, the root or
// docs/, but not a shell variable's path, a glob or an absolute path.
func TestDanglingCitations(t *testing.T) {
	line := "see DESIGN.md and docs/NOTES.md, the [store](STORE.md), `bench/README.md`, " +
		"ARCHITECTURE.md, `$$dir/$$name.md`, docs/*.md, /tmp/out.md and https://example.com/x.md"
	got := danglingCitations(".", "docs", line)
	if want := []string{"DESIGN.md", "docs/NOTES.md"}; !slices.Equal(got, want) {
		t.Errorf("dangling = %q, want %q", got, want)
	}
}

// TestPackageMap fails for every package directory outside bench/ that
// docs/ARCHITECTURE.md's package map does not name. `make doc-check` runs
// it.
func TestPackageMap(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Package map\n")
	if !ok {
		t.Fatal("docs/ARCHITECTURE.md has no \"## Package map\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]bool{}
	for _, f := range strings.Fields(section) {
		named[f] = true
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		gofiles, _ := filepath.Glob(filepath.Join(path, "*.go"))
		tests, _ := filepath.Glob(filepath.Join(path, "*_test.go"))
		name := filepath.ToSlash(path)
		if path == "." {
			name = "signguard"
		}
		if len(gofiles) > len(tests) && !named[name] {
			t.Errorf("package %s is missing from docs/ARCHITECTURE.md's package map", name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocFlags fails for every -flag on a `go run ./cmd/<name>` line of
// README.md or docs/*.md, or on a usage line of cmd/<name>/main.go's doc
// comment, that cmd/<name>'s non-test sources do not define. `make
// doc-check` runs it.
func TestDocFlags(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		defined := map[string]map[string]bool{"flserver": {"addr": true, "rule": true, "seed": true}}
		line := "go run ./cmd/flserver -addr :9000 -rule Mean -seed -1 -nonfinite-policy clamp # -comment"
		if got, want := undefinedFlags(defined, line), []string{"flserver -nonfinite-policy"}; !slices.Equal(got, want) {
			t.Errorf("undefined = %q, want %q", got, want)
		}
	})

	dirs, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]map[string]bool{}
	var lines []numberedLine
	var files []string
	for _, dir := range dirs {
		name := filepath.Base(dir)
		if defined[name], err = commandFlags(dir); err != nil {
			t.Fatal(err)
		}
		main := filepath.Join(dir, "main.go")
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, main, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range f.Doc.List {
			if text, ok := strings.CutPrefix(c.Text, "//\t"+name+" "); ok {
				lines = append(lines, numberedLine{fset.Position(c.Pos()).Line, "go run ./cmd/" + name + " " + text})
				files = append(files, main)
			}
		}
	}
	docs, _ := filepath.Glob(filepath.Join("docs", "*.md"))
	for _, file := range append([]string{"README.md"}, docs...) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(raw), "\n") {
			lines = append(lines, numberedLine{i + 1, text})
			files = append(files, file)
		}
	}
	for i, line := range lines {
		for _, flag := range undefinedFlags(defined, line.text) {
			t.Errorf("%s:%d: %s is not a flag cmd/%s defines", files[i], line.n, flag, strings.Fields(flag)[0])
		}
	}
}

// commandFlags returns the names of the flags a command's non-test sources
// define: the string-literal name of every flag.String / fs.IntVar / ...
// call.
func commandFlags(dir string) (map[string]bool, error) {
	sources, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	names := map[string]bool{"h": true, "help": true}
	fset := token.NewFileSet()
	for _, file := range sources {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiner.MatchString(sel.Sel.Name) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					names[strings.Trim(lit.Value, "\"`")] = true
					break
				}
			}
			return true
		})
	}
	return names, nil
}

var (
	flagDefiner = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text)(Var)?$`)
	goRunCmd    = regexp.MustCompile(`go run \./cmd/([\w-]+)`)
	flagToken   = regexp.MustCompile(`(?:^|[\s\[])(-[A-Za-z][\w-]*)`)
)

// undefinedFlags returns "<command> -flag" for every flag a `go run
// ./cmd/<command>` invocation in line passes that defined[command] lacks.
// An invocation ends at a shell comment, pipe, `&&` or `;`.
func undefinedFlags(defined map[string]map[string]bool, line string) []string {
	var out []string
	matches := goRunCmd.FindAllStringSubmatchIndex(line, -1)
	for i, m := range matches {
		end := len(line)
		if i+1 < len(matches) {
			end = matches[i+1][0]
		}
		args := line[m[1]:end]
		if j := strings.IndexAny(args, "#|;&`"); j >= 0 {
			args = args[:j]
		}
		name := line[m[2]:m[3]]
		for _, f := range flagToken.FindAllStringSubmatch(args, -1) {
			if !defined[name][f[1][1:]] {
				out = append(out, name+" "+f[1])
			}
		}
	}
	return out
}

type numberedLine struct {
	n    int
	text string
}

// proseLines returns the lines of a Markdown file outside its fenced code
// blocks, or the comment lines of a Go file outside its doc comments' code
// blocks: a command's output file is not a citation.
func proseLines(file string) ([]numberedLine, error) {
	var out []numberedLine
	if strings.HasSuffix(file, ".go") {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				if strings.HasPrefix(text, "\t") {
					continue
				}
				out = append(out, numberedLine{fset.Position(c.Pos()).Line, text})
			}
		}
		return out, nil
	}
	fh, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	fenced := false
	for n := 1; sc.Scan(); n++ {
		if strings.HasPrefix(sc.Text(), "```") {
			fenced = !fenced
		} else if !fenced {
			out = append(out, numberedLine{n, sc.Text()})
		}
	}
	return out, sc.Err()
}

var mdToken = regexp.MustCompile("[^\\s`'\"()\\[\\]<>,;]*\\.md\\b")

// danglingCitations returns the *.md names in text that exist neither
// relative to dir nor to root, nor (bare names) in root/docs.
func danglingCitations(root, dir, text string) []string {
	var out []string
	for _, name := range mdToken.FindAllString(text, -1) {
		if strings.ContainsAny(name, "$*") || strings.HasPrefix(name, "/") || strings.Contains(name, "://") {
			continue
		}
		found := false
		for _, base := range []string{dir, root, filepath.Join(root, "docs")} {
			if _, err := os.Stat(filepath.Join(base, filepath.FromSlash(name))); err == nil {
				found = true
				break
			}
		}
		if !found {
			out = append(out, name)
		}
	}
	return out
}
