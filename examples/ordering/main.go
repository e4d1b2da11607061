// Ordering: explore the Theorem 3 processor-ordering policy on a
// random heterogeneous platform — every permutation of a small grid,
// and the three standard policies on a larger one.
//
// Run with: go run ./examples/ordering
package main

import (
	"fmt"
	"log"
	"math/rand"

	scatter "repro"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/schedule"
)

const items = 200000

func main() {
	// A small random platform: exhaustive permutation study.
	rng := rand.New(rand.NewSource(2003))
	small := platform.Random(rng, 4) // 4 machines, 1-4 CPUs each
	procs, err := small.ProcessorsOrdered(platform.OrderAsListed)
	if err != nil {
		log.Fatal(err)
	}
	if len(procs) > 7 {
		procs = append(procs[:6], procs[len(procs)-1]) // keep it exhaustive-friendly
	}
	study, err := core.ExhaustiveOrdering(procs, items, scatter.Balance)
	if err != nil {
		log.Fatal(err)
	}
	stair := func(r core.OrderedResult) float64 {
		tl, err := schedule.Build(core.Permute(procs, r.Order), r.Result.Distribution)
		if err != nil {
			log.Fatal(err)
		}
		return tl.StairArea()
	}
	fmt.Printf("exhaustive study: %d processors, %d items, %d orderings\n",
		len(procs), items, study.Orderings)

	policy := scatter.Order(procs)
	resPolicy, err := scatter.Balance(policy, items)
	if err != nil {
		log.Fatal(err)
	}
	best, worst := study.Best, study.Worst
	fmt.Printf("  best permutation:  makespan %8.2f s (stair area %7.1f s)\n", best.Result.Makespan, stair(best))
	fmt.Printf("  theorem 3 policy:  makespan %8.2f s\n", resPolicy.Makespan)
	fmt.Printf("  worst permutation: makespan %8.2f s (stair area %7.1f s)\n\n", worst.Result.Makespan, stair(worst))

	// The Table 1 grid: the three standard policies side by side.
	fmt.Println("Table 1 grid, 817101 rays:")
	for _, o := range []platform.Ordering{
		platform.OrderDescendingBandwidth,
		platform.OrderAsListed,
		platform.OrderAscendingBandwidth,
	} {
		procs, err := platform.Table1().ProcessorsOrdered(o)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Heuristic(procs, platform.Table1Rays)
		if err != nil {
			log.Fatal(err)
		}
		tl, err := schedule.Build(procs, res.Distribution)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s makespan %7.2f s, stair area %7.1f s\n",
			o.String(), res.Makespan, tl.StairArea())
	}
}
