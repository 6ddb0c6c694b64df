// Quickstart: build the paper's road-side scenario, compare the three
// probing strategies analytically, then simulate SNIP-RH for two
// weeks and check that the analysis holds.
package main

import (
	"fmt"
	"log"

	"rushprobe"
)

func main() {
	// The paper's §VII.A deployment: 24-hour epoch, rush hours at
	// 07-09 and 17-19, a contact every 300 s in rush hours and every
	// 1800 s otherwise, 2-second contacts. We ask for 24 s of probed
	// contact capacity per day under a probing-energy budget of
	// Tepoch/1000 = 86.4 s of radio on-time.
	sc := rushprobe.Roadside(rushprobe.WithZetaTarget(24))

	report, err := rushprobe.Analyze(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("closed-form analysis (target 24 s/day, budget 86.4 s/day):")
	for _, row := range []struct {
		name string
		m    rushprobe.Metrics
	}{
		{name: rushprobe.SNIPAT, m: report.AT},
		{name: rushprobe.SNIPOPT, m: report.OPT},
		{name: rushprobe.SNIPRH, m: report.RH},
	} {
		fmt.Printf("  %-9s zeta=%6.2f s  phi=%6.2f s  rho=%5.2f  target met: %v\n",
			row.name, row.m.Zeta, row.m.Phi, row.m.Rho, row.m.TargetMet)
	}

	// Full discrete-event simulation of SNIP-RH: the node learns the
	// mean contact length online, probes only in rush hours, and stops
	// when its buffered data is drained or the budget is spent.
	sum, err := rushprobe.Simulate(sc, rushprobe.SNIPRH, rushprobe.WithEpochs(14), rushprobe.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated SNIP-RH over %d days:\n", sum.Epochs)
	fmt.Printf("  zeta = %.2f ± %.2f s/day, phi = %.2f ± %.2f s/day, rho = %.2f\n",
		sum.Zeta, sum.ZetaCI95, sum.Phi, sum.PhiCI95, sum.Rho)
	fmt.Printf("  %.1f contacts/day arrived, %.1f probed, %.0f bytes/day uploaded\n",
		sum.ContactsArrived, sum.ContactsProbed, sum.UploadedBytes)
}
