package signguard

import (
	"bufio"
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
