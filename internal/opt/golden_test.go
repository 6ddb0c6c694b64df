package opt

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rushprobe/internal/dist"
	"rushprobe/internal/model"
	"rushprobe/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/solve_bits.golden from the current solver")

const solveBitsGolden = "testdata/solve_bits.golden"

// Fleet-shaped problems mirror fleet.learnedScenario: 24 hourly slots, a
// fixed contact length quantized to lengthQuantum, per-slot capacities
// quantized to capacityQuantum (some slots learned empty), and a
// two-block rush mask that each node sees shifted around the day. The
// fleet's default budget and target are the roadside ones.
const (
	fleetSlotLen    = 3600.0
	lengthQuantum   = 0.1
	capacityQuantum = 1.0
	fleetPhiMax     = 86.4
	fleetZetaTarget = 24.0
)

func quantize(v, q float64) float64 { return math.Round(v/q) * q }

// fleetSlots draws one learned node's slot processes. Frequencies go
// through the same interval round trip as the fleet's scenarios (the
// scenario stores 1/rate, the optimizer reads 1/interval back).
func fleetSlots(s *rng.Stream) []model.SlotProcess {
	meanLen := math.Max(quantize(0.5+3*s.Float64(), lengthQuantum), lengthQuantum)
	shift := s.Intn(24)
	slots := make([]model.SlotProcess, 24)
	for i := range slots {
		h := (i + shift) % 24
		base := 4.0
		if (h >= 7 && h < 9) || (h >= 17 && h < 19) {
			base = 24
		}
		c := quantize(base*(0.5+s.Float64()), capacityQuantum)
		if s.Bool(0.15) {
			c = 0
		}
		slots[i] = model.SlotProcess{Duration: fleetSlotLen}
		if c <= 0 {
			continue
		}
		interval := 1 / (c / (meanLen * fleetSlotLen))
		slots[i].Freq = 1 / interval
		slots[i].Length = dist.Fixed{Value: meanLen}
	}
	return slots
}

// fleetProblems returns n fleet-shaped problems at the fleet's default
// budget and target, as the plan cache solves them.
func fleetProblems(seed uint64, n int) []Problem {
	s := rng.New(seed)
	out := make([]Problem, n)
	for i := range out {
		out[i] = Problem{
			Model:      model.DefaultConfig(),
			Slots:      fleetSlots(s),
			PhiMax:     fleetPhiMax,
			ZetaTarget: fleetZetaTarget,
		}
	}
	return out
}

type namedProblem struct {
	name string
	p    Problem
}

// goldenProblems is the fixed corpus behind solve_bits.golden: 192
// seeded fleet-shaped problems over tight and loose budgets, targets on
// both sides of the knee and optional duty caps; the §VII roadside
// problem at the figure anchors; and one grid-path problem with
// dist.NormalTenth lengths.
func goldenProblems() []namedProblem {
	budgets := []float64{0, 21.6, 43.2, 86.4, 172.8, 864}
	targets := []float64{0, 4, 12, 24, 40, 56, 96, 1e9}
	maxDuties := []float64{0.005, 0.01, 0.02, 0.1}
	s := rng.New(20110620)
	var out []namedProblem
	for i := 0; i < 192; i++ {
		p := Problem{Model: model.DefaultConfig(), Slots: fleetSlots(s)}
		p.PhiMax = budgets[s.Intn(len(budgets))]
		if s.Bool(0.5) {
			p.ZetaTarget = targets[s.Intn(len(targets))]
		} else {
			p.ZetaTarget = 120 * s.Float64()
		}
		if s.Bool(0.2) {
			p.MaxDuty = maxDuties[s.Intn(len(maxDuties))]
		}
		out = append(out, namedProblem{fmt.Sprintf("fleet-%03d", i), p})
	}
	for _, pt := range []struct{ phi, target, maxDuty float64 }{
		{86.4, 16, 0}, {86.4, 24, 0}, {86.4, 56, 0}, {864, 24, 0},
		{864, 32, 0}, {864, 56, 0}, {10000, 56, 0.01}, {0, 24, 0}, {86.4, 0, 0},
	} {
		p := roadside(pt.phi, pt.target)
		p.MaxDuty = pt.maxDuty
		out = append(out, namedProblem{fmt.Sprintf("roadside-%g-%g-%g", pt.phi, pt.target, pt.maxDuty), p})
	}
	// Two roadside slots, rush and off-peak, with normal lengths: the
	// target sits past the rush slot's knee, so step 2 bisects and trims
	// on the tabulated grid. Two slots keep the quadrature cheap.
	normal := roadside(864, 16)
	normal.Slots = []model.SlotProcess{normal.Slots[7], normal.Slots[0]}
	for i := range normal.Slots {
		normal.Slots[i].Length = dist.NormalTenth(2)
	}
	out = append(out, namedProblem{"roadside-normal-864-16", normal})
	return out
}

// solveBits renders one plan as the exact float64 bits of every output.
func solveBits(name string, plan Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s zeta=%016x phi=%016x met=%t bound=%t duty=", name,
		math.Float64bits(plan.Zeta), math.Float64bits(plan.Phi), plan.TargetMet, plan.BudgetBound)
	for i, d := range plan.Duty {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(d))
	}
	return b.String()
}

// TestSolveBitsGolden pins the solver's output bit for bit. Any change
// to the water-filling that moves a single bit of a Duty, Zeta or Phi
// fails here; performance work on the solver must leave this file
// untouched. Regenerate with -update only for an intended change of
// results.
func TestSolveBitsGolden(t *testing.T) {
	var got bytes.Buffer
	got.WriteString("# name zeta phi targetMet budgetBound duty — float64 bits of opt.Solve\n")
	for _, np := range goldenProblems() {
		plan, err := Solve(np.p)
		if err != nil {
			t.Fatalf("%s: %v", np.name, err)
		}
		got.WriteString(solveBits(np.name, plan))
		got.WriteByte('\n')
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(solveBitsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(solveBitsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(solveBitsGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", solveBitsGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, the solver output %d", solveBitsGolden, len(wl), len(gl))
}
