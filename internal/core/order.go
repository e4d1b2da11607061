package core

import (
	"errors"
	"fmt"
)

// This file implements the exhaustive ordering study of Section 4.4:
// "An exact study is feasible even in the general case [...] We can
// indeed consider all the possible orderings of our p processors, use
// Algorithm 1 to compute the theoretical execution times, and chose
// the best result. This is theoretically possible. In practice, for
// large values of p such an approach is unrealistic." ExhaustiveOrdering
// makes the feasible version available (with a guard on p) and also
// returns the worst ordering, which bounds how much the Theorem 3
// policy could leave on the table.

// MaxExhaustiveOrderingProcs bounds the exhaustive search: (p-1)!
// solver calls explode quickly (9! = 362880).
const MaxExhaustiveOrderingProcs = 10

// OrderedResult is a distribution bound to the processor ordering it
// was computed for.
type OrderedResult struct {
	// Order is a permutation of the input processor indices (the last
	// input processor, the root, stays last).
	Order []int
	// Result is the solver's outcome on the ordered processors.
	Result Result
}

// OrderingStudy is the outcome of an exhaustive ordering search.
type OrderingStudy struct {
	// Best and Worst minimize and maximize the makespan; on a tie the
	// first ordering found wins.
	Best, Worst OrderedResult
	// Orderings is how many orderings were solved: (p-1)!.
	Orderings int
}

// ExhaustiveOrdering solves every ordering of the processors (keeping
// the root — the last input processor — last) with the given solver
// and returns the best and the worst. It refuses p >
// MaxExhaustiveOrderingProcs; use OrderDecreasingBandwidth there (the
// paper's recommendation, optimal in the linear case by Theorem 3).
func ExhaustiveOrdering(procs []Processor, n int, solve Solver) (OrderingStudy, error) {
	if err := ValidateProcessors(procs); err != nil {
		return OrderingStudy{}, err
	}
	p := len(procs)
	if p > MaxExhaustiveOrderingProcs {
		return OrderingStudy{}, fmt.Errorf("core: exhaustive ordering over %d processors needs %d solver calls; use the Theorem 3 policy instead", p, factorial(p-1))
	}
	if solve == nil {
		return OrderingStudy{}, errors.New("core: nil solver")
	}

	var study OrderingStudy
	workers := make([]int, p-1)
	for i := range workers {
		workers[i] = i
	}
	var solveErr error
	permuteInts(workers, func(perm []int) {
		if solveErr != nil {
			return
		}
		order := append(append([]int(nil), perm...), p-1)
		res, err := solve(Permute(procs, order), n)
		if err != nil {
			solveErr = err
			return
		}
		r := OrderedResult{Order: order, Result: res}
		if study.Orderings == 0 || res.Makespan < study.Best.Result.Makespan {
			study.Best = r
		}
		if study.Orderings == 0 || res.Makespan > study.Worst.Result.Makespan {
			study.Worst = r
		}
		study.Orderings++
	})
	if solveErr != nil {
		return OrderingStudy{}, solveErr
	}
	return study, nil
}

func permuteInts(xs []int, f func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			f(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
