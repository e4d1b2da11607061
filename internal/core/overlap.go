package core

import (
	"errors"
	"fmt"
)

// This file implements the communication/computation-overlap variant
// of the linear closed form. The paper's framework deliberately keeps
// the original program's structure — the root "can only start to
// process its share of the data items after it has sent the other data
// items to the other processors" — whereas the master/worker
// literature it cites (Beaumont, Legrand, Robert) lets the master
// compute while its port streams data out. SolveLinearRootOverlap
// solves that relaxed model so the cost of the paper's structural
// restriction can be measured (see the ablation benchmarks).

// SolveLinearRootOverlap computes the optimal rational distribution
// for linear cost functions when the root (the last processor) may
// compute concurrently with its sends. Workers behave exactly as in
// Theorem 1; the root's finish time becomes beta_p * n_p, independent
// of the communication chain, so the simultaneous-endings system gains
// the root term 1/beta_p without the usual product prefix:
//
//	t = n / ( sum_{i<p} 1/(a_i+b_i) * prod_{j<i} b_j/(a_j+b_j)  +  1/b_p )
//
// Worker pruning follows the Theorem 2 criterion against the
// overlap-aware suffix quantity.
func SolveLinearRootOverlap(lps []LinearProcessor, n int) (LinearSolution, error) {
	p := len(lps)
	if p == 0 {
		return LinearSolution{}, errors.New("core: no processors")
	}
	if n < 0 {
		return LinearSolution{}, fmt.Errorf("core: negative item count %d", n)
	}
	for i, lp := range lps {
		if lp.Alpha < 0 || lp.Beta < 0 {
			return LinearSolution{}, fmt.Errorf("core: processor %d (%s) has negative cost constants", i, lp.Name)
		}
	}

	sol := LinearSolution{
		Shares: make([]float64, p),
		Kept:   make([]bool, p),
	}
	root := lps[p-1]
	sol.Kept[p-1] = true

	if root.Beta == 0 {
		// An infinitely fast overlapping root absorbs everything.
		sol.Shares[p-1] = float64(n)
		return sol, nil
	}

	// overlapD computes 1/S for a worker chain (ordered) plus the
	// overlapping root.
	overlapD := func(workers []LinearProcessor) float64 {
		sum := 1 / root.Beta
		prod := 1.0
		for _, w := range workers {
			ab := w.Alpha + w.Beta
			if ab == 0 {
				return 0 // infinitely fast worker
			}
			sum += prod / ab
			prod *= w.Beta / ab
		}
		return 1 / sum
	}

	// Prune workers back to front with the Theorem 2 criterion
	// against the overlap-aware suffix.
	kept := []LinearProcessor{}
	for i := p - 2; i >= 0; i-- {
		d := overlapD(kept)
		if lps[i].Alpha <= d {
			sol.Kept[i] = true
			kept = append([]LinearProcessor{lps[i]}, kept...)
		}
	}

	d := overlapD(kept)
	if d == 0 {
		// An infinitely fast kept worker takes everything.
		for i := 0; i < p-1; i++ {
			if sol.Kept[i] && lps[i].Alpha+lps[i].Beta == 0 {
				sol.Shares[i] = float64(n)
				return sol, nil
			}
		}
		return sol, nil
	}
	t := float64(n) * d
	sol.Makespan = t
	prod := 1.0
	for i := 0; i < p-1; i++ {
		if !sol.Kept[i] {
			continue
		}
		ab := lps[i].Alpha + lps[i].Beta
		sol.Shares[i] = prod / ab * t
		prod *= lps[i].Beta / ab
	}
	sol.Shares[p-1] = t / root.Beta
	return sol, nil
}
