// Command snipsim runs one simulation of the road-side scenario under a
// chosen probing strategy and prints the per-epoch averages. With
// -fleet it instead co-simulates a heterogeneous node population
// against a live fleet (closed loop: observations in, learned schedules
// back out) and prints the per-epoch convergence toward the oracle.
//
// Usage:
//
//	snipsim -strategy rh -target 24 -budget-frac 0.001 -epochs 14
//	snipsim -strategy SNIP-RH+AT -epochs 28    # any registered name or alias
//	snipsim -fleet -fleet-nodes 100 -epochs 10 -fleet-drift 0.25
//	snipsim -list-strategies
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rushprobe"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "snipsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("snipsim", flag.ContinueOnError)
	var (
		strat      = fs.String("strategy", "rh", "registered strategy name or alias, e.g. at, opt, rh, adaptive (see -list-strategies)")
		listStrats = fs.Bool("list-strategies", false, "list registered probing strategies and exit")
		target     = fs.Float64("target", 24, "probed-capacity target zeta_target in seconds per epoch")
		budgetFrac = fs.Float64("budget-frac", 1.0/1000, "energy budget PhiMax as a fraction of the epoch")
		epochs     = fs.Int("epochs", 14, "number of simulated epochs (days)")
		seed       = fs.Uint64("seed", 1, "random seed")
		loss       = fs.Float64("loss", 0, "beacon loss probability")
		perEpoch   = fs.Bool("per-epoch", false, "also print per-epoch capacity (per-replication summaries with -replications)")
		reps       = fs.Int("replications", 1, "independent replications with derived seeds")
		parallel   = fs.Int("parallel", 0, "max concurrent replications (0 = GOMAXPROCS, 1 = serial; output is identical either way)")

		fleetMode  = fs.Bool("fleet", false, "closed-loop fleet co-simulation: a heterogeneous population learns its schedules online")
		fleetNodes = fs.Int("fleet-nodes", 64, "population size of the -fleet co-simulation")
		fleetDrift = fs.Float64("fleet-drift", 0, "fraction of the -fleet population whose pattern shifts mid-run")
		driftEpoch = fs.Int("fleet-drift-epoch", 0, "epoch at which drifting nodes shift (0 = halfway)")
		driftBy    = fs.Int("fleet-drift-slots", 3, "how many slots drifting nodes shift by")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listStrats {
		for _, name := range rushprobe.Strategies() {
			desc, err := rushprobe.StrategyDescription(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-12s %s\n", name, desc)
		}
		return nil
	}
	sc := rushprobe.Roadside(
		rushprobe.WithZetaTarget(*target),
		rushprobe.WithBudgetFraction(*budgetFrac),
		rushprobe.WithBeaconLoss(*loss),
	)
	if *fleetMode {
		if *reps > 1 {
			return fmt.Errorf("-fleet runs one co-simulation (the population is the replication axis); drop -replications")
		}
		opts := []rushprobe.SimOption{
			rushprobe.WithEpochs(*epochs),
			rushprobe.WithSeed(*seed),
			rushprobe.WithParallelism(*parallel),
			rushprobe.WithNodes(*fleetNodes),
		}
		if *fleetDrift > 0 {
			opts = append(opts, rushprobe.WithDrift(*fleetDrift, *driftEpoch, *driftBy))
		}
		sum, err := rushprobe.SimulateFleet(sc, *strat, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleet strategy:   %s\n", sum.Strategy)
		fmt.Fprintf(stdout, "population:       %d nodes x %d epochs (%d drifted)\n", sum.Nodes, sum.Epochs, sum.DriftNodes)
		fmt.Fprintf(stdout, "plan cache:       %d solves, %d hits, %d distinct plans served\n",
			sum.Stats.PlanSolves, sum.Stats.PlanCacheHits, sum.DistinctPlans)
		fmt.Fprintf(stdout, "observations:     %d accepted, %d stale, %d invalid\n",
			sum.Stats.Observations, sum.Stats.Stale, sum.Stats.Invalid)
		fmt.Fprintln(stdout, "per-epoch fleet means (closed loop vs oracle):")
		for _, p := range sum.PerEpoch {
			fmt.Fprintf(stdout, "  epoch %2d: zeta %7.3f s (oracle %7.3f, x%.3f)  phi %7.3f s (oracle %7.3f, x%.3f)\n",
				p.Epoch, p.Zeta, p.OracleZeta, p.ZetaRatio, p.Phi, p.OraclePhi, p.PhiRatio)
		}
		return nil
	}
	if *reps > 1 {
		rep, err := rushprobe.SimulateReplications(sc, *strat, *reps,
			rushprobe.WithEpochs(*epochs),
			rushprobe.WithSeed(*seed),
			rushprobe.WithParallelism(*parallel),
		)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mechanism:        %s\n", rep.Strategy)
		fmt.Fprintf(stdout, "replications:     %d x %d epochs\n", rep.Replications, *epochs)
		fmt.Fprintf(stdout, "zeta (probed):    %.3f s/epoch (target %.3f, ±%.3f across replications)\n", rep.Zeta, *target, rep.ZetaCI95)
		fmt.Fprintf(stdout, "phi (probing):    %.3f s/epoch (budget %.3f, ±%.3f across replications)\n", rep.Phi, sc.PhiMax(), rep.PhiCI95)
		fmt.Fprintf(stdout, "rho (cost/unit):  %.3f\n", rep.Rho)
		if *perEpoch {
			for i, r := range rep.Runs {
				fmt.Fprintf(stdout, "  replication %2d: zeta = %.3f s, phi = %.3f s\n", i, r.Zeta, r.Phi)
			}
		}
		return nil
	}
	sum, err := rushprobe.Simulate(sc, *strat,
		rushprobe.WithEpochs(*epochs),
		rushprobe.WithSeed(*seed),
	)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mechanism:        %s\n", sum.Strategy)
	fmt.Fprintf(stdout, "epochs:           %d\n", sum.Epochs)
	fmt.Fprintf(stdout, "zeta (probed):    %.3f s/epoch (target %.3f, ±%.3f)\n", sum.Zeta, *target, sum.ZetaCI95)
	fmt.Fprintf(stdout, "phi (probing):    %.3f s/epoch (budget %.3f, ±%.3f)\n", sum.Phi, sc.PhiMax(), sum.PhiCI95)
	fmt.Fprintf(stdout, "rho (cost/unit):  %.3f\n", sum.Rho)
	fmt.Fprintf(stdout, "uploaded:         %.0f bytes/epoch\n", sum.UploadedBytes)
	fmt.Fprintf(stdout, "contacts:         %.1f arrived, %.1f probed per epoch\n", sum.ContactsArrived, sum.ContactsProbed)
	if *perEpoch {
		for i, z := range sum.PerEpochZeta {
			fmt.Fprintf(stdout, "  epoch %2d: zeta = %.3f s\n", i, z)
		}
	}
	return nil
}
