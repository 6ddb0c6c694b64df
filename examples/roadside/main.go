// Roadside reproduces the paper's full evaluation sweep in miniature:
// for both energy budgets (Tepoch/1000 and Tepoch/100) and every
// capacity target of Figures 5-8, it prints the analytical and simulated
// zeta/phi/rho of SNIP-AT, SNIP-OPT, and SNIP-RH side by side.
package main

import (
	"fmt"
	"log"

	"rushprobe"
)

func main() {
	budgets := []struct {
		name string
		frac float64
	}{
		{name: "PhiMax = Tepoch/1000 (Figs. 5 & 7)", frac: 1.0 / 1000},
		{name: "PhiMax = Tepoch/100  (Figs. 6 & 8)", frac: 1.0 / 100},
	}
	targets := []float64{16, 24, 32, 40, 48, 56}

	for _, b := range budgets {
		fmt.Printf("== %s ==\n", b.name)
		fmt.Printf("%8s  %28s  %28s\n", "", "analysis (zeta/phi/rho)", "simulation (zeta/phi/rho)")
		fmt.Printf("%8s  %9s %9s %9s  %9s %9s %9s\n",
			"target", "AT", "OPT", "RH", "AT", "OPT", "RH")
		for _, target := range targets {
			sc := rushprobe.Roadside(
				rushprobe.WithZetaTarget(target),
				rushprobe.WithBudgetFraction(b.frac),
			)
			scFixed := rushprobe.Roadside(
				rushprobe.WithFixedLengths(),
				rushprobe.WithZetaTarget(target),
				rushprobe.WithBudgetFraction(b.frac),
			)
			rep, err := rushprobe.Analyze(scFixed)
			if err != nil {
				log.Fatal(err)
			}
			var simZ [3]float64
			for i, m := range []string{rushprobe.SNIPAT, rushprobe.SNIPOPT, rushprobe.SNIPRH} {
				// 7 days keeps the example fast; the bench suite runs
				// the full two weeks.
				sum, err := rushprobe.Simulate(sc, m, rushprobe.WithEpochs(7), rushprobe.WithSeed(1))
				if err != nil {
					log.Fatal(err)
				}
				simZ[i] = sum.Zeta
			}
			fmt.Printf("%7.0fs  %9.1f %9.1f %9.1f  %9.1f %9.1f %9.1f\n",
				target, rep.AT.Zeta, rep.OPT.Zeta, rep.RH.Zeta,
				simZ[0], simZ[1], simZ[2])
		}
		fmt.Println()
	}
	fmt.Println("Shapes to check against the paper:")
	fmt.Println("  - tight budget: AT flat near 8.8 s; RH tracks the target up to ~28.8 s and matches OPT")
	fmt.Println("  - loose budget: AT meets all targets expensively; RH caps at its 48 s rush-hour ceiling")
}
