package analysis

import (
	"math"
	"reflect"
	"testing"

	"rushprobe/internal/pool"
	"rushprobe/internal/scenario"
)

// The memoizing evaluator must agree bit for bit with the one-shot
// AT/OPT/RH functions at every target: the cache only skips repeated
// work, never changes the float math. Fixed-length scenarios are cheap,
// so the whole paper grid is checked.
func TestEvaluatorMatchesOneShotFixedLengths(t *testing.T) {
	for _, budgetFrac := range []float64{1.0 / 1000, 1.0 / 100} {
		base := scenario.Roadside(scenario.WithFixedLengths(), scenario.WithBudgetFraction(budgetFrac))
		ev, err := NewEvaluator(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range PaperTargets() {
			sc := *base
			sc.ZetaTarget = target

			wantAT, err := AT(&sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := ev.AT(target); got != wantAT {
				t.Errorf("budget %g target %g: evaluator AT %+v != %+v", budgetFrac, target, got, wantAT)
			}

			wantOPT, err := OPT(&sc)
			if err != nil {
				t.Fatal(err)
			}
			gotOPT, err := ev.OPT(target)
			if err != nil {
				t.Fatal(err)
			}
			if gotOPT != wantOPT {
				t.Errorf("budget %g target %g: evaluator OPT %+v != %+v", budgetFrac, target, gotOPT, wantOPT)
			}

			wantRH, err := RH(&sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := ev.RH(target); got != wantRH {
				t.Errorf("budget %g target %g: evaluator RH %+v != %+v", budgetFrac, target, got, wantRH)
			}
		}
	}
}

// For distributed contact lengths the one-shot OPT path re-tabulates
// the slot curves on every call (exactly the cost the evaluator
// memoizes), so parity is spot-checked at two targets; AT and RH parity
// stays cheap and covers the full grid.
func TestEvaluatorMatchesOneShotNormalLengths(t *testing.T) {
	base := scenario.Roadside(scenario.WithBudgetFraction(1.0 / 100))
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range PaperTargets() {
		sc := *base
		sc.ZetaTarget = target
		wantAT, err := AT(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.AT(target); got != wantAT {
			t.Errorf("target %g: evaluator AT %+v != %+v", target, got, wantAT)
		}
		wantRH, err := RH(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.RH(target); got != wantRH {
			t.Errorf("target %g: evaluator RH %+v != %+v", target, got, wantRH)
		}
	}
	for _, target := range []float64{24, 56} {
		sc := *base
		sc.ZetaTarget = target
		want, err := OPTPlan(&sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.OPTPlan(target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("target %g: evaluator plan differs from OPTPlan", target)
		}
	}
}

// One shared Evaluator, driven over the paper's targets by the worker
// pool the way Figures 5 and 6 are built, must give the serial points at
// every parallelism setting: concurrent Point calls only share the
// memoized work, never change a result.
func TestSweepTargetsParallelDeterministic(t *testing.T) {
	base := scenario.Roadside(scenario.WithFixedLengths(), scenario.WithBudgetFraction(1.0/1000))
	sweep := func(workers int) ([][3]Result, error) {
		ev, err := NewEvaluator(base)
		if err != nil {
			return nil, err
		}
		targets := PaperTargets()
		points := make([][3]Result, len(targets))
		err = pool.ForEach(len(targets), workers, func(i int) error {
			at, op, rh, err := ev.Point(targets[i])
			points[i] = [3]Result{at, op, rh}
			return err
		})
		return points, err
	}
	serial, err := sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 16} {
		parallel, err := sweep(workers)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("parallelism %d: sweep differs from serial", workers)
		}
	}
}

func TestEvaluatorScenarioCopies(t *testing.T) {
	base := scenario.Roadside()
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	sc := ev.Scenario(42)
	if sc.ZetaTarget != 42 {
		t.Errorf("ZetaTarget = %v, want 42", sc.ZetaTarget)
	}
	if base.ZetaTarget == 42 {
		t.Error("Scenario() must not mutate the base")
	}
	if math.Abs(sc.TotalCapacity()-base.TotalCapacity()) > 1e-12 {
		t.Error("copy should share the slot processes")
	}
}
