package core

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
	if err := checkLinear(lps, n); err != nil {
		return LinearSolution{}, err
	}
	p := len(lps)
	sol := newLinearSolution(p)
	root := lps[p-1]
	sol.Kept[p-1] = true

	if root.Beta == 0 {
		// An infinitely fast overlapping root absorbs everything.
		sol.Shares[p-1] = float64(n)
		return sol, nil
	}

	// The workers form the chain; the root's term 1/beta_p starts D's
	// sum, so workers are pruned against the overlap-aware suffix.
	sol.Makespan = closedForm(lps[:p-1], 1/root.Beta, n, sol.Shares[:p-1], sol.Kept[:p-1])
	sol.Shares[p-1] = sol.Makespan / root.Beta
	return sol, nil
}
