package rushprobe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rushprobe/internal/lint"
)

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks walks every *.md file in the repository and checks
// that each relative link resolves to an existing file or directory.
// External links (http/https/mailto) and pure in-page anchors are
// skipped; a "#fragment" suffix on a file link is stripped before the
// existence check. CI runs this as part of the docs job, so a renamed
// file cannot silently orphan its references.
func TestMarkdownLinks(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bin holds build artifacts; .git is not ours to scan.
			if name := d.Name(); name == ".git" || name == "bin" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, file)
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", rel, m[1], err)
			}
		}
	}
}

// parseModuleFiles parses the module's own Go files: its _test.go files
// when tests is set, every other .go file otherwise. Nested modules
// (bench/), testdata trees, hidden directories and bin/ are skipped.
// Paths are slash-separated and relative to the module root; fset
// positions the parsed nodes.
func parseModuleFiles(t *testing.T, tests bool) (fset *token.FileSet, files map[string]*ast.File) {
	t.Helper()
	files = map[string]*ast.File{}
	fset = token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "bin" || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found")
	}
	return fset, files
}

// invariantRef matches the names an "Enforced by" cell can point at: a
// test, fuzz target or benchmark function, an analyzer ("`name`
// analyzer"), or a make target ("`make name`").
var invariantRef = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)\\w*)`|`(\\w+)` analyzer|`make ([\\w-]+)`")

// TestInvariantsTable checks docs/ARCHITECTURE.md's "Invariants to
// preserve" table against the code: every row's "Enforced by" cell must
// name at least one test, fuzz target, benchmark, analyzer or make
// target, and every one it names must exist. A renamed or deleted test
// then fails here instead of leaving a row that enforces nothing.
func TestInvariantsTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	_, tests := parseModuleFiles(t, true)
	for _, f := range tests {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
	}
	_, section, ok := strings.Cut(string(doc), "\n## Invariants to preserve\n")
	if !ok {
		t.Fatal(`docs/ARCHITECTURE.md has no "## Invariants to preserve" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| **") {
			continue // prose, the header row or the separator
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 3 {
			t.Errorf("invariant row has %d cells, want 3: %s", len(cells), line)
			continue
		}
		rows++
		name, enforced := cells[0], cells[2]
		refs := invariantRef.FindAllStringSubmatch(enforced, -1)
		if len(refs) == 0 {
			t.Errorf("%s: \"Enforced by\" names no test, fuzz target, benchmark, analyzer or make target", name)
		}
		for _, m := range refs {
			switch {
			case m[1] != "" && !funcs[m[1]]:
				t.Errorf("%s: enforced by %s, which no _test.go file declares", name, m[1])
			case m[2] != "" && lint.ByName(m[2]) == nil:
				t.Errorf("%s: enforced by the %s analyzer, which internal/lint does not have", name, m[2])
			case m[3] != "" && !regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(m[3])+`\s*:`).Match(makefile):
				t.Errorf("%s: enforced by make %s, which the Makefile does not define", name, m[3])
			}
		}
	}
	if rows == 0 {
		t.Fatal("the invariants table has no rows")
	}
}
