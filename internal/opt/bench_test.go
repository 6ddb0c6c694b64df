package opt

import "testing"

// learnedCorpus is the size of the fleet-shaped problem set the solver
// benchmark and allocation pin cycle through.
const learnedCorpus = 400

// BenchmarkSolveLearned times one SNIP-OPT solve (curves and both
// steps) on fleet-shaped problems at the fleet's default budget and
// target. It is the offline twin of the benchmark's per-layer
// strategy.solve_ms.SNIP-OPT, which times the same solve through the
// strategy registry on every learned scenario of a warmed fleet.
func BenchmarkSolveLearned(b *testing.B) {
	probs := fleetProblems(1, learnedCorpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(probs[i%len(probs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolverSolveAllocs pins the allocation count of one Solver.Solve
// on fleet-shaped problems: the bisections themselves allocate nothing,
// so only the plan's slices and the surplus/slack bookkeeping remain.
func TestSolverSolveAllocs(t *testing.T) {
	const maxAllocs = 16
	for i, p := range fleetProblems(1, 16) {
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Solve(p.PhiMax, p.ZetaTarget); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("problem %d: Solver.Solve allocates %.0f times, want <= %d", i, allocs, maxAllocs)
		}
	}
}
