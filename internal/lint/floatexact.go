package lint

import (
	"go/ast"
	"go/types"
)

// FloatExact guards the persistence formats: state that is written to
// be read back must round-trip floats bit-exactly, which textual
// formatting does not guarantee under maintenance (a %f picks up a
// precision, a FormatFloat grows a smaller bitSize). Persistence code
// stores math.Float64bits / binary encodings instead.
//
// fmt.Errorf is exempt — error strings are diagnostics, not persisted
// state.
var FloatExact = &Analyzer{
	Name:        "floatexact",
	Doc:         "forbid lossy float formatting (fmt verbs, FormatFloat, JSON marshal) in persistence code",
	Applies:     persistencePackages,
	AppliesFile: persistenceFiles,
	Run:         floatexactRun,
}

// fmtFormatters are the fmt functions that render their arguments to
// text. Errorf is excluded: errors are read by humans, not decoders.
var fmtFormatters = map[string]bool{
	"Sprintf": true, "Fprintf": true, "Printf": true, "Appendf": true,
	"Sprint": true, "Fprint": true, "Print": true, "Append": true,
	"Sprintln": true, "Fprintln": true, "Println": true, "Appendln": true,
}

func floatexactRun(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(call.Fun).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			pkg, name := trimVendor(fn.Pkg().Path()), fn.Name()
			switch pkg {
			case "strconv":
				if name == "FormatFloat" || name == "AppendFloat" {
					pass.Reportf(call.Pos(), "strconv.%s is textual float formatting in persistence code; store math.Float64bits instead", name)
				}
			case "fmt":
				if fmtFormatters[name] && callHasFloatArg(pass, call) {
					pass.Reportf(call.Pos(), "fmt.%s formats a float in persistence code; store math.Float64bits instead (error messages belong in fmt.Errorf, which is exempt)", name)
				}
			case "encoding/json":
				if (name == "Marshal" || name == "MarshalIndent" || name == "Encode") && len(call.Args) > 0 {
					if t := pass.TypeOf(call.Args[0]); t != nil && typeCarriesFloat(t, make(map[types.Type]bool), 0) {
						pass.Reportf(call.Pos(), "json.%s of a float-carrying type in persistence code; floats must persist as math.Float64bits (or annotate with //rushlint:allow floatexact — <reason> and pin exactness with a test)", name)
					}
				}
			}
			return true
		})
	}
	return nil
}

func callHasFloatArg(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := pass.TypeOf(arg)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return true
		}
	}
	return false
}

// typeCarriesFloat reports whether a value of type t (de)serializes any
// floating-point component. It recurses through pointers, containers,
// and struct fields with a cycle guard and a depth cap.
func typeCarriesFloat(t types.Type, seen map[types.Type]bool, depth int) bool {
	if t == nil || depth > 12 || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsFloat|types.IsComplex) != 0
	case *types.Pointer:
		return typeCarriesFloat(u.Elem(), seen, depth+1)
	case *types.Slice:
		return typeCarriesFloat(u.Elem(), seen, depth+1)
	case *types.Array:
		return typeCarriesFloat(u.Elem(), seen, depth+1)
	case *types.Map:
		return typeCarriesFloat(u.Key(), seen, depth+1) || typeCarriesFloat(u.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeCarriesFloat(u.Field(i).Type(), seen, depth+1) {
				return true
			}
		}
	}
	return false
}
