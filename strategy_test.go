package rushprobe

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestStrategiesRegistry asserts the paper's four schemes are
// registered and alias lookups resolve.
func TestStrategiesRegistry(t *testing.T) {
	got := Strategies()
	for _, want := range []string{"SNIP-AT", "SNIP-OPT", "SNIP-RH", "SNIP-RH+AT"} {
		found := false
		for _, n := range got {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Strategies() = %v, missing %s", got, want)
		}
	}
	for _, name := range got {
		if _, err := StrategyDescription(name); err != nil {
			t.Errorf("StrategyDescription(%s): %v", name, err)
		}
	}
	if _, err := StrategyDescription("SNIP-BOGUS"); err == nil {
		t.Error("unknown strategy should error")
	}
}

// TestSimulateWithStrategy runs the simulation through the strategy
// registry: an alias resolves and the summary reports the canonical
// name, unknown names error, and WithStrategy — RunExperiment's axis —
// is rejected instead of overriding the argument.
func TestSimulateWithStrategy(t *testing.T) {
	sc := Roadside(WithZetaTarget(16))
	sum, err := Simulate(sc, "rh", WithEpochs(3))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Strategy != SNIPRH {
		t.Fatalf("strategy = %s, want the canonical %s", sum.Strategy, SNIPRH)
	}
	base, err := Simulate(sc, SNIPRH, WithEpochs(3))
	if err != nil {
		t.Fatal(err)
	}
	if base.Zeta != sum.Zeta || base.Phi != sum.Phi {
		t.Fatalf("alias run differs from canonical run: %+v vs %+v", sum, base)
	}
	if _, err := Simulate(sc, SNIPAT, WithEpochs(3), WithStrategy("rh")); err == nil {
		t.Fatal("Simulate must reject WithStrategy")
	}
	if _, err := SimulateReplications(sc, SNIPAT, 2, WithEpochs(3), WithStrategy("rh")); err == nil {
		t.Fatal("SimulateReplications must reject WithStrategy")
	}
	if _, err := Simulate(sc, "SNIP-BOGUS", WithEpochs(3)); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

// TestRunExperimentStrategyAxis asserts experiments without a strategy
// axis reject a selection instead of silently ignoring it.
func TestRunExperimentStrategyAxis(t *testing.T) {
	_, err := RunExperiment("fig5", 1, WithStrategy("rh"))
	if err == nil || !strings.Contains(err.Error(), "no strategy axis") {
		t.Fatalf("fig5 with a strategy selection: err = %v, want a no-strategy-axis error", err)
	}
}

// TestStrategyNamesDeclaredOnce keeps the strategy registry the one
// place a strategy's name is spelled: no non-test Go file of the module
// other than internal/strategy/builtin.go may hold a string literal
// equal to a built-in strategy's canonical name. Everything else refers
// to strategy.Name* (or rushprobe.SNIP*) or resolves a name through
// strategy.Lookup. Prose that merely mentions a name inside a longer
// literal is fine.
func TestStrategyNamesDeclaredOnce(t *testing.T) {
	names := map[string]bool{SNIPAT: true, SNIPOPT: true, SNIPRH: true, SNIPAdaptiveRH: true}
	const home = "internal/strategy/builtin.go"
	fset, files := parseModuleFiles(t, false)
	for path, f := range files {
		if path == home {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if v, err := strconv.Unquote(lit.Value); err == nil && names[v] {
				t.Errorf("%s: string literal %s duplicates a strategy name declared in %s", fset.Position(lit.Pos()), lit.Value, home)
			}
			return true
		})
	}
}
