// Package lint is rushprobe's static-analysis suite: a small,
// stdlib-only framework in the image of golang.org/x/tools/go/analysis
// plus the repo-specific analyzers that turn the invariants documented
// in docs/ARCHITECTURE.md into machine-checked law.
//
// The framework mirrors the x/tools Analyzer/Pass shape on purpose so
// the analyzers can be ported mechanically if the module ever takes on
// the x/tools dependency; it exists because this module is
// intentionally dependency-free and the build environment is offline.
//
// Suppression: a diagnostic is suppressed by a directive comment
//
//	//rushlint:allow <analyzer> — <reason>
//
// on the offending line or on a comment line directly above it. The
// reason is mandatory: an allow without one is itself reported. The
// hotpath analyzer is opt-in per function via a
//
//	//rushlint:hotpath
//
// line in the function's doc comment.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a name, a doc string, a Run
// function, and the set of packages it applies to.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the analyzer should run at all on the
	// package with the given import path. Nil means every package.
	Applies func(importPath string) bool
	// AppliesFile, when non-nil, further restricts the analyzer to
	// specific files within an applicable package (matched on base
	// name). Nil means every file of an applicable package.
	AppliesFile func(importPath, baseName string) bool
	Run         func(*Pass) error
	// RunModule, when non-nil, is used instead of Run: the analyzer
	// sees every loaded package at once, for checks that need the
	// import graph (a per-package pass cannot see who imports it).
	RunModule func(*ModulePass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// ModulePass carries one module-level analyzer's view of every loaded
// package.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos within pkg.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves the called object of a call expression's fun,
// unwrapping parens and selectors. Returns nil for indirect calls.
func (p *Pass) ObjectOf(fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		return p.TypesInfo.Uses[f.Sel]
	}
	return nil
}

// Run applies the analyzers to the packages and returns the surviving
// diagnostics sorted by position. //rushlint:allow directives are
// honored here, after the analyzers report, so every analyzer gets
// suppression for free; malformed or reason-less directives become
// diagnostics of their own.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(pkgs)
	all := append([]Diagnostic(nil), dirs.malformed...)
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule != nil {
			if err := a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, diags: &diags}); err != nil {
				return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			files := pkg.Files
			if a.AppliesFile != nil {
				files = nil
				for _, f := range pkg.Files {
					base := baseOf(pkg.Fset, f)
					if a.AppliesFile(pkg.Path, base) {
						files = append(files, f)
					}
				}
				if len(files) == 0 {
					continue
				}
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, d := range diags {
		if !dirs.allows(d.Analyzer, d.Pos) {
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

func baseOf(fset *token.FileSet, f *ast.File) string {
	name := fset.Position(f.Package).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// PathIn returns an Applies predicate matching any of the given import
// paths exactly.
func PathIn(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(importPath string) bool { return set[importPath] }
}
