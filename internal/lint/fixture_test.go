package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: each fixture tree
// under testdata/src (one package, or several for a module-level
// analyzer) seeds violations annotated with
//
//	// want `regex`
//
// comments on the offending line. The runner loads the fixture through
// the same Load path as cmd/rushlint, runs the analyzer with its scope
// filters removed (fixture import paths live under testdata, not the
// repo's scope tables), and then requires an exact match: every want
// has a diagnostic on its line matching the regex, and every diagnostic
// has a want. Lines carrying //rushlint:allow directives have no wants,
// so a broken suppression path fails the same test.

// unscoped strips an analyzer's package/file scope so it runs on a
// fixture package.
func unscoped(a *Analyzer) *Analyzer {
	c := *a
	c.Applies = nil
	c.AppliesFile = nil
	return &c
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"detclock", DetClock},
		{"floatexact", FloatExact},
		{"durability", Durability},
		{"locksafe", LockSafe},
		{"hotpath", HotPath},
		{"deadpkg", DeadPkg},
		// Malformed directives are reported by Run itself; the analyzer
		// choice is arbitrary.
		{"directives", DetClock},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			runFixture(t, filepath.Join("testdata", "src", tc.dir), unscoped(tc.analyzer))
		})
	}
}

func runFixture(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load("", "./"+dir+"/...")
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("load %s: no packages", dir)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", dir, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}

	wants := parseWants(t, dir)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != filepath.Join(abs, w.file) || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("want `([^`]+)`")

// parseWants scans the fixture sources, in every package of the tree,
// for `// want` assertions; file names are relative to dir. A line may
// carry several backquoted regexes after one want marker.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", rel, i+1, m[1], err)
				}
				wants = append(wants, want{file: rel, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want assertions", dir)
	}
	return wants
}

// TestFixturesHaveAllowExamples pins that every fixture suppression
// actually suppresses: each fixture package contains at least one
// //rushlint:allow directive, and runFixture (above) would report any
// diagnostic surviving on those lines as unexpected.
func TestFixturesHaveAllowExamples(t *testing.T) {
	for _, dir := range []string{"detclock", "floatexact", "durability", "locksafe", "hotpath"} {
		data, err := os.ReadFile(filepath.Join("testdata", "src", dir, dir+".go"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), allowPrefix) {
			t.Errorf("fixture %s has no //rushlint:allow example", dir)
		}
	}
}

func TestSplitAllow(t *testing.T) {
	cases := []struct {
		in           string
		name, reason string
		ok           bool
	}{
		{"detclock — telemetry tap", "detclock", "telemetry tap", true},
		{"locksafe -- streaming write", "locksafe", "streaming write", true},
		{"detclock", "", "", false},
		{"detclock —", "", "", false},
		{"detclock telemetry tap", "", "", false},
	}
	for _, tc := range cases {
		name, reason, ok := splitAllow(tc.in)
		if name != tc.name || reason != tc.reason || ok != tc.ok {
			t.Errorf("splitAllow(%q) = %q, %q, %v; want %q, %q, %v",
				tc.in, name, reason, ok, tc.name, tc.reason, tc.ok)
		}
	}
}

func TestDirectiveAliasesResolve(t *testing.T) {
	known := knownAnalyzerNames()
	for alias, canonical := range directiveAliases {
		if !known[canonical] {
			t.Errorf("alias %q maps to unknown analyzer %q", alias, canonical)
		}
		if known[alias] {
			t.Errorf("alias %q shadows a real analyzer name", alias)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want the %s analyzer", a.Name, got, a.Name)
		}
	}
	if got := ByName("nosuch"); got != nil {
		t.Errorf("ByName(nosuch) = %v, want nil", got)
	}
}
