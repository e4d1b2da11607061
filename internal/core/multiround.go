package core

import (
	"errors"
	"fmt"

	"repro/internal/lp"
)

// This file extends the paper's single-installment scatter to
// multi-installment (multi-round) distributions, the classic divisible
// load theory refinement (Bharadwaj et al., the paper's reference [6]).
// With one installment, processor Pi idles until every earlier
// processor received its whole share — the stair effect. Splitting the
// scatter into R rounds lets far processors start computing on a first
// installment while the rest of their data is still queued behind the
// root's port, shrinking the stair at the cost of more messages.
//
// For affine cost functions the optimal R-round schedule with a fixed
// service order (rounds outer, processors inner, the natural Scatterv
// loop) is a linear program: with share variables n[i][r] >= 0,
//
//	arrive[i][r] = sum of Tcomm over all port slots up to (r, i)
//	T >= arrive[i][r] + Tcomp-slope_i * (remaining work of Pi from round r)
//	     + Tcomp-fixed_i
//	sum n[i][r] = n
//
// because computation on already-delivered data keeps the CPU busy:
// processor i's finish time is governed, for each round r, by the
// arrival of installment r plus the computation of everything it still
// holds from round r on. We solve it in float64 with lp.SolveFloat and
// round with the Section 3.3 scheme.

// MultiRoundResult is an R-round distribution plan.
type MultiRoundResult struct {
	// Shares[r][i] is the number of items sent to processor i in
	// round r; the scatter executes rounds in order, processors in
	// list order within a round.
	Shares [][]int
	// Totals[i] is processor i's total item count.
	Totals Distribution
	// Makespan is the schedule's completion time under the
	// multi-round evaluation (EvaluateMultiRound).
	Makespan float64
}

// MultiRound computes an R-round scatter plan minimizing the makespan
// for affine cost functions. R = 1 reduces to the single-installment
// problem (the heuristic of Section 3.3). Each round's message to a
// processor pays the full affine communication cost, so large R on a
// latency-bound platform backfires — the trade-off the multiround
// experiment quantifies.
func MultiRound(procs []Processor, n, rounds int) (MultiRoundResult, error) {
	if err := ValidateProcessors(procs); err != nil {
		return MultiRoundResult{}, err
	}
	if n < 0 {
		return MultiRoundResult{}, fmt.Errorf("core: negative item count %d", n)
	}
	if rounds < 1 {
		return MultiRoundResult{}, errors.New("core: need at least one round")
	}
	aps, err := ExtractAffine(procs)
	if err != nil {
		return MultiRoundResult{}, err
	}
	p := len(procs)

	// Variables: x[r*p + i] = share of processor i in round r, plus
	// the makespan T at index rounds*p. This LP grows to rounds*p+1
	// variables, where exact rational pivoting becomes prohibitively
	// slow (numerator bit-growth), so it uses the float64 simplex;
	// the subsequent rounding step absorbs the float imprecision.
	nv := rounds*p + 1
	tIdx := rounds * p
	prob := &lp.FloatProblem{NumVars: nv}
	prob.Objective = make([]float64, nv)
	prob.Objective[tIdx] = 1

	// Total-work constraint.
	eq := lp.FloatConstraint{Rel: lp.EQ, RHS: float64(n)}
	eq.Coeffs = make([]float64, nv)
	for v := 0; v < rounds*p; v++ {
		eq.Coeffs[v] = 1
	}
	prob.Constraints = append(prob.Constraints, eq)

	// Finish-time constraints. Port slots run (round 0, proc 0..p-1),
	// (round 1, proc 0..p-1), ... For the slot of (r, i):
	//
	//	arrive = sum over earlier slots (s, j) of
	//	           CommFixed_j + CommPerItem_j * x[s][j]
	//	         + CommFixed_i + CommPerItem_i * x[r][i]
	//	T >= arrive + CompFixed_i
	//	       + CompPerItem_i * sum_{s >= r} x[s][i]
	//
	// As in the single-round LP we charge affine fixed costs
	// unconditionally (the paper's convention); zero-share rounds
	// only over-approximate, so plans stay feasible. The root
	// (assumed last with zero comm cost) contributes no port time.
	for r := 0; r < rounds; r++ {
		for i := 0; i < p; i++ {
			c := lp.FloatConstraint{Rel: lp.LE, Coeffs: make([]float64, nv)}
			fixed := 0.0
			// Earlier slots.
			for s := 0; s <= r; s++ {
				last := p
				if s == r {
					last = i + 1
				}
				for j := 0; j < last; j++ {
					c.Coeffs[s*p+j] += aps[j].CommPerItem
					fixed += aps[j].CommFixed
				}
			}
			// Remaining computation from round r on.
			for s := r; s < rounds; s++ {
				c.Coeffs[s*p+i] += aps[i].CompPerItem
			}
			fixed += aps[i].CompFixed
			c.Coeffs[tIdx] = -1
			c.RHS = -fixed
			prob.Constraints = append(prob.Constraints, c)
		}
	}

	sol, err := lp.SolveFloat(prob)
	if err != nil {
		return MultiRoundResult{}, fmt.Errorf("core: multi-round LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return MultiRoundResult{}, fmt.Errorf("core: multi-round LP is %v", sol.Status)
	}

	// Round the rounds*p shares jointly with the Section 3.3 scheme
	// (the float adapter rescales them to sum exactly to n first).
	flat := RoundShares(sol.X[:rounds*p], n)
	res := MultiRoundResult{
		Shares: make([][]int, rounds),
		Totals: make(Distribution, p),
	}
	for r := 0; r < rounds; r++ {
		res.Shares[r] = make([]int, p)
		for i := 0; i < p; i++ {
			res.Shares[r][i] = flat[r*p+i]
			res.Totals[i] += flat[r*p+i]
		}
	}
	res.Makespan = EvaluateMultiRound(procs, res.Shares)
	return res, nil
}

// EvaluateMultiRound computes the makespan of executing the given
// round shares under the single-port model: the root walks rounds in
// order and processors in list order within a round; each processor's
// CPU processes its installments back to back as they arrive.
func EvaluateMultiRound(procs []Processor, shares [][]int) float64 {
	p := len(procs)
	port := 0.0
	cpuFree := make([]float64, p) // when each CPU finishes current work
	for _, round := range shares {
		for i := 0; i < p && i < len(round); i++ {
			x := round[i]
			if x == 0 {
				continue
			}
			port += procs[i].Comm.Eval(x)
			start := port
			if cpuFree[i] > start {
				start = cpuFree[i]
			}
			cpuFree[i] = start + procs[i].Comp.Eval(x)
		}
	}
	makespan := 0.0
	for _, f := range cpuFree {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}
