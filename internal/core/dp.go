package core

import (
	"fmt"
	"runtime"

	"repro/internal/cost"
)

// Algorithm1 computes an optimal distribution of n items with the
// paper's basic dynamic program (Algorithm 1). It only requires the
// cost functions to be non-negative and null at x = 0, and runs in
// O(p·n²) time and O(p·n) space.
//
// The recurrence follows Section 3.2: the cost of processing d items on
// processors Pi..Pp is
//
//	cost[d, i] = min_{0<=e<=d} Tcomm(i,e) + max(Tcomp(i,e), cost[d-e, i+1])
//
// with cost[d, p] = Tcomm(p,d) + Tcomp(p,d).
//
// Ties follow Algorithm 2's rule, the one contract every exact path
// keeps. Let the crossover emax be the smallest e with
// Tcomp(i,e) >= cost[d-e, i+1], or d when there is none. Among the
// shares of minimal cost, the largest one at or below emax is kept.
// On increasing costs the minimum is always reached at or below emax
// (above it the cost is Tcomm+Tcomp, which never drops below its value
// at emax), so Algorithm 1 then returns Algorithm 2's distribution bit
// for bit. On general costs the minimum may lie only above emax; the
// smallest minimizing share above it is kept there.
func Algorithm1(procs []Processor, n int) (Result, error) {
	if err := validateDPInput(procs, n); err != nil {
		return Result{}, err
	}
	p := len(procs)

	// choice[i][d] is the share given to processor i when d items
	// remain for processors i..p-1.
	choice := make([][]int32, p)
	for i := range choice {
		choice[i] = make([]int32, n+1)
	}

	// costNext holds cost[., i+1]; costCur is being filled for i.
	costNext := make([]float64, n+1)
	costCur := make([]float64, n+1)
	// comm and comp tabulate the current processor's cost functions so
	// the O(n²) inner loop indexes flat arrays instead of going
	// through interface dispatch.
	comm := make([]float64, n+1)
	comp := make([]float64, n+1)

	// Base: last processor takes everything that remains.
	tabulate(procs[p-1], n, comm, comp)
	for d := 0; d <= n; d++ {
		costNext[d] = comm[d] + comp[d]
		choice[p-1][d] = int32(d)
	}

	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		costCur[0] = comm[0] + maxf(comp[0], costNext[0])
		choice[i][0] = 0
		for d := 1; d <= n; d++ {
			emax := d
			for e := 0; e < d; e++ {
				if comp[e] >= costNext[d-e] {
					emax = e
					break
				}
			}
			// Scan down from the crossover, then up from it, updating
			// only on a strictly smaller cost: the first scan keeps the
			// largest minimizing share at or below emax, the second
			// replaces it only by a strictly cheaper share above emax.
			sol := emax
			min := comm[emax] + maxf(comp[emax], costNext[d-emax])
			for e := emax - 1; e >= 0; e-- {
				if m := comm[e] + maxf(comp[e], costNext[d-e]); m < min {
					sol, min = e, m
				}
			}
			for e := emax + 1; e <= d; e++ {
				if m := comm[e] + maxf(comp[e], costNext[d-e]); m < min {
					sol, min = e, m
				}
			}
			choice[i][d] = int32(sol)
			costCur[d] = min
		}
		costCur, costNext = costNext, costCur
	}

	return reconstruct(procs, n, choice), nil
}

// tabulate fills comm[e] = Tcomm(i,e) and comp[e] = Tcomp(i,e) for
// e in [0, n].
func tabulate(pr Processor, n int, comm, comp []float64) {
	fillCosts(pr.Comm, 0, comm[:n+1])
	fillCosts(pr.Comp, 0, comp[:n+1])
}

// fillCosts sets out[k] to f at the share start + k, using closed
// forms for the linear and affine cost types and falling back to
// per-entry evaluation otherwise. Each share's value comes from the
// same expression wherever the window starts, so a window holds
// exactly the bits of the full [0, n] table.
func fillCosts(f cost.Function, start int, out []float64) {
	switch cf := f.(type) {
	case cost.Linear:
		for k := range out {
			out[k] = 0
			if e := start + k; e != 0 {
				out[k] = cf.PerItem * float64(e)
			}
		}
	case cost.Affine:
		for k := range out {
			out[k] = 0
			if e := start + k; e != 0 {
				out[k] = cf.Fixed + cf.PerItem*float64(e)
			}
		}
	default:
		for k := range out {
			out[k] = f.Eval(start + k)
		}
	}
}

// Algorithm2 computes an optimal distribution with the paper's
// optimized dynamic program (Algorithm 2). It requires the cost
// functions to be increasing; same worst-case complexity as Algorithm
// 1 (O(p·n²)) but O(p·n) in the best case and far faster in practice.
// Its tie rule is the contract of every exact path (see Algorithm1):
// each cell keeps the largest minimizing share at or below the
// crossover, because rowRange starts there, scans downwards and
// updates only on a strictly smaller cost.
// It fills the full table with the shared rowRange kernel, each row
// spread over GOMAXPROCS goroutines from 2^15 items
// (rowFanOutThreshold) and on the calling goroutine below, and reads
// the answer with Lookup(n, 0), which finds every block it reads
// published.
func Algorithm2(procs []Processor, n int) (Result, error) {
	pl, err := fullTable(procs, n, runtime.GOMAXPROCS(0))
	if err != nil {
		return Result{}, err
	}
	return pl.Lookup(n, 0)
}

func validateDPInput(procs []Processor, n int) error {
	if err := ValidateProcessors(procs); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("core: negative item count %d", n)
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// reconstruct walks the choice table from the full problem down to the
// last processor and evaluates the achieved makespan with Eq. (2). The
// evaluated makespan equals the DP cost for consistent cost functions;
// Result reports the evaluated value so that all solvers are compared
// on the same footing.
func reconstruct(procs []Processor, n int, choice [][]int32) Result {
	p := len(procs)
	dist := make(Distribution, p)
	d := n
	for i := 0; i < p; i++ {
		e := int(choice[i][d])
		dist[i] = e
		d -= e
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}
}
