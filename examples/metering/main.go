// Metering models one of the paper's motivating applications: household
// utility meters read opportunistically by meter readers and commuters
// passing through a residential street.
//
// The mobility pattern here is weekly: weekday commuter peaks plus a
// meter-reader round on weekday mornings, and quiet weekends. The epoch
// is therefore 7 days split into 168 hourly slots. The example builds
// that scenario with the public API, lets SNIP-OPT derive the optimal
// plan, and compares SNIP-AT with SNIP-RH over four simulated weeks.
package main

import (
	"fmt"
	"log"
	"time"

	"rushprobe"
)

func main() {
	slots := make([]rushprobe.SlotSpec, 7*24)
	for day := 0; day < 7; day++ {
		weekday := day < 5
		for hour := 0; hour < 24; hour++ {
			i := day*24 + hour
			switch {
			case weekday && (hour == 8 || hour == 9):
				// Meter-reader round plus commuter peak: a passer-by
				// every 2 minutes, 4-second walking-speed contacts.
				slots[i] = rushprobe.SlotSpec{MeanInterval: 120, MeanLength: 4, RushHour: true}
			case weekday && (hour == 17 || hour == 18):
				// Evening commute: every 5 minutes.
				slots[i] = rushprobe.SlotSpec{MeanInterval: 300, MeanLength: 4, RushHour: true}
			case hour >= 7 && hour <= 21:
				// Daytime background: every 30 minutes.
				slots[i] = rushprobe.SlotSpec{MeanInterval: 1800, MeanLength: 4}
			default:
				// Night: almost nobody passes. Leave the slot empty.
			}
		}
	}
	// A meter reading is a few hundred bytes; a weekly target of 60 s of
	// probed contact time is far more than billing needs — it leaves
	// room for firmware and diagnostics traffic.
	sc, err := rushprobe.New("metering", 7*24*time.Hour, slots,
		rushprobe.WithTarget(60),
		rushprobe.WithBudget(600), // 10 minutes of on-time per week
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weekly contact capacity: %.0f s (%.0f s in rush hours)\n\n",
		sc.TotalCapacity(), sc.RushCapacity())

	plan, err := rushprobe.OptimalPlan(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SNIP-OPT plan: zeta=%.1f s/week at phi=%.1f s/week (target met: %v)\n",
		plan.Zeta, plan.Phi, plan.TargetMet)
	active := 0
	for _, d := range plan.Duty {
		if d > 0 {
			active++
		}
	}
	fmt.Printf("  the plan probes in %d of %d weekly hours\n\n", active, len(plan.Duty))

	for _, m := range []string{rushprobe.SNIPAT, rushprobe.SNIPRH} {
		sum, err := rushprobe.Simulate(sc, m,
			rushprobe.WithEpochs(4), // four weeks
			rushprobe.WithSeed(7),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s zeta=%6.1f s/week  phi=%6.1f s/week  rho=%5.2f  uploaded=%.0f B/week\n",
			sum.Strategy, sum.Zeta, sum.Phi, sum.Rho, sum.UploadedBytes)
	}
	fmt.Println("\nSNIP-RH reads the meters with a fraction of SNIP-AT's probing energy")
	fmt.Println("by concentrating on the morning meter-reader round and the commutes.")
}
