package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix introduces a suppression directive:
//
//	//rushlint:allow <analyzer> — <reason>
//
// The separator may be an em-dash or "--"; the reason is mandatory.
// The directive suppresses matching diagnostics on its own line and on
// the line directly below it (covering both the end-of-line and the
// standalone-comment-above placements).
const allowPrefix = "//rushlint:allow"

// hotpathDirective marks a function for the hotpath analyzer; it lives
// in the function's doc comment.
const hotpathDirective = "//rushlint:hotpath"

// directiveAliases maps the historical/categorical directive keys to
// analyzer names, so //rushlint:allow wallclock reads naturally at a
// time.Now call even though the analyzer is named detclock.
var directiveAliases = map[string]string{
	"wallclock": "detclock",
	"maporder":  "detclock",
	"globrand":  "detclock",
}

// directives is the suppression table of every loaded package.
type directives struct {
	// byLine maps filename -> line -> analyzer names allowed there.
	byLine    map[string]map[int]map[string]bool
	malformed []Diagnostic
}

func collectDirectives(pkgs []*Package) *directives {
	d := &directives{byLine: make(map[string]map[int]map[string]bool)}
	known := knownAnalyzerNames()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d.addComment(pkg.Fset, c, known)
				}
			}
		}
	}
	return d
}

func (d *directives) addComment(fset *token.FileSet, c *ast.Comment, known map[string]bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//rushlint:") {
		return
	}
	pos := fset.Position(c.Pos())
	if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
		return // consumed by the hotpath analyzer via doc comments
	}
	if !strings.HasPrefix(text, allowPrefix) {
		d.malformed = append(d.malformed, Diagnostic{
			Analyzer: "rushlint",
			Pos:      pos,
			Message:  "unknown rushlint directive; want //rushlint:allow <analyzer> — <reason> or //rushlint:hotpath",
		})
		return
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	name, reason, ok := splitAllow(rest)
	if canonical, isAlias := directiveAliases[name]; isAlias {
		name = canonical
	}
	if !ok || !known[name] {
		d.malformed = append(d.malformed, Diagnostic{
			Analyzer: "rushlint",
			Pos:      pos,
			Message:  "malformed //rushlint:allow directive; want //rushlint:allow <analyzer> — <reason> with a known analyzer and a non-empty reason",
		})
		return
	}
	_ = reason // the reason is for the human reader; its presence is what we enforce
	file := pos.Filename
	if d.byLine[file] == nil {
		d.byLine[file] = make(map[int]map[string]bool)
	}
	for _, line := range []int{pos.Line, pos.Line + 1} {
		if d.byLine[file][line] == nil {
			d.byLine[file][line] = make(map[string]bool)
		}
		d.byLine[file][line][name] = true
	}
}

// splitAllow parses "<analyzer> — <reason>" (or "<analyzer> -- <reason>").
func splitAllow(s string) (name, reason string, ok bool) {
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return "", "", false
	}
	if fields[1] != "—" && fields[1] != "--" {
		return "", "", false
	}
	return fields[0], strings.Join(fields[2:], " "), true
}

func (d *directives) allows(analyzer string, pos token.Position) bool {
	lines := d.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer]
}

// hasHotpathDirective reports whether the function declaration's doc
// comment carries //rushlint:hotpath.
func hasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}
