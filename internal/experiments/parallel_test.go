package experiments

import (
	"reflect"
	"testing"
)

// The analysis sweep tables of both budgets must not depend on the
// parallelism setting.
func TestAnalysisFigureParallelDeterministic(t *testing.T) {
	for _, fig := range []struct {
		id         string
		budgetFrac float64
	}{{"fig5", 1.0 / 1000}, {"fig6", 1.0 / 100}} {
		serial, err := runAnalysisFigure(fig.id, fig.budgetFrac, Params{Seed: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 16} {
			parallel, err := runAnalysisFigure(fig.id, fig.budgetFrac, Params{Seed: 1, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", fig.id, workers, err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s parallelism %d: analysis tables differ from serial", fig.id, workers)
			}
		}
	}
}

// A full simulation grid (scenario x strategy sweep through the worker
// pool, shared evaluator, shared factories) must produce byte-identical
// tables at any parallelism. ext-loss is the cheapest experiment that
// exercises the concurrent sim.Run path.
func TestSimulationGridParallelDeterministic(t *testing.T) {
	serial, err := runExtLoss(Params{Seed: 5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runExtLoss(Params{Seed: 5, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel simulation grid differs from serial")
	}
}
