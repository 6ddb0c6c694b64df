package lint

import "strings"

// DeadPkg flags internal packages that nothing in the module uses: a
// non-main package under an internal/ directory that no loaded package
// imports. The loader reads only GoFiles, so an import from a _test.go
// file does not keep a package alive; a package whose only user is a
// test is dead code with a test attached.
//
// It is a module-level check, because a per-package pass cannot see a
// package's importers, and it sees importers only among the loaded
// packages: it is meaningful over the whole module (./..., what
// make lint runs). A narrower pattern leaves importers out; pick the
// other analyzers with -checks there.
//
// The diagnostic sits on the package clause of the package's first
// file in name order. A //rushlint:allow deadpkg — <reason> on or
// directly above that clause keeps a package that is unimported on
// purpose.
var DeadPkg = &Analyzer{
	Name:      "deadpkg",
	Doc:       "flag internal packages that no non-test package in the module imports",
	RunModule: deadpkgRun,
}

func deadpkgRun(pass *ModulePass) error {
	imported := make(map[string]bool)
	for _, pkg := range pass.Pkgs {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	for _, pkg := range pass.Pkgs {
		if imported[pkg.Path] || pkg.Types.Name() == "main" || !isInternalPath(pkg.Path) {
			continue
		}
		pass.Reportf(pkg, pkg.Files[0].Package,
			"package %s is imported by no non-test package in the module; delete it or allow it on this package clause", pkg.Path)
	}
	return nil
}

// isInternalPath reports whether an import path has an internal
// element, which the go command restricts to importers in the same
// tree.
func isInternalPath(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}
