package core

import (
	"errors"
	"fmt"

	"repro/internal/cost"
)

// LinearProcessor is a processor with linear cost functions, the
// setting of the paper's Section 4 case study: Tcomm(i,x) = Alpha*x and
// Tcomp(i,x) = Beta*x.
type LinearProcessor struct {
	// Name identifies the processor.
	Name string
	// Alpha is the per-item communication cost, in seconds (the
	// inverse of the link bandwidth in items/second).
	Alpha float64
	// Beta is the per-item computation cost, in seconds.
	Beta float64
}

// Processor converts the linear description into a general Processor.
func (lp LinearProcessor) Processor() Processor {
	return Processor{
		Name: lp.Name,
		Comm: cost.Linear{PerItem: lp.Alpha},
		Comp: cost.Linear{PerItem: lp.Beta},
	}
}

// ExtractLinear recovers the Alpha/Beta constants from processors whose
// cost functions are linear (per cost.ClassOf). It fails if any
// function is not linear.
func ExtractLinear(procs []Processor) ([]LinearProcessor, error) {
	out := make([]LinearProcessor, len(procs))
	for i, p := range procs {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if c := cost.ClassOf(p.Comm); c < cost.LinearClass {
			return nil, fmt.Errorf("core: processor %d (%s) communication cost is %v, not linear", i, p.Name, c)
		}
		if c := cost.ClassOf(p.Comp); c < cost.LinearClass {
			return nil, fmt.Errorf("core: processor %d (%s) computation cost is %v, not linear", i, p.Name, c)
		}
		out[i] = LinearProcessor{
			Name:  p.Name,
			Alpha: p.Comm.Eval(1),
			Beta:  p.Comp.Eval(1),
		}
	}
	return out, nil
}

// D computes the quantity D(P1,...,Pp) of Theorem 1:
//
//	D(P1..Pp) = 1 / sum_i [ 1/(alpha_i+beta_i) * prod_{j<i} beta_j/(alpha_j+beta_j) ]
//
// so that the balanced makespan with simultaneous endings is
// t = n * D(P1..Pp). The product follows from the simultaneous-endings
// recurrence Ti = Ti-1, which gives n_i*(alpha_i+beta_i) =
// beta_{i-1}*n_{i-1}. A processor with alpha+beta = 0 is infinitely
// fast and makes D zero.
func D(lps []LinearProcessor) float64 {
	if len(lps) == 0 {
		return 0
	}
	sum := 0.0
	prod := 1.0
	for _, lp := range lps {
		ab := lp.Alpha + lp.Beta
		if ab == 0 {
			// Infinitely fast processor: it absorbs everything in no
			// time, so the suffix cost is zero and D diverges to 0.
			return 0
		}
		sum += prod / ab
		prod *= lp.Beta / ab
	}
	if sum == 0 {
		return 0
	}
	return 1 / sum
}

// LinearSolution is the rational (fractional) solution of the linear
// case study.
type LinearSolution struct {
	// Shares are the rational item counts per processor; pruned
	// processors have share 0.
	Shares []float64
	// Makespan is the common finish time t = n*D over the kept set.
	Makespan float64
	// Kept flags the processors that participate: by Theorem 2, Pi
	// participates only if alpha_i <= D(P_{i+1}..) over the kept
	// suffix; others only lengthen the schedule and are dropped.
	Kept []bool
}

// SolveLinearRational computes the optimal rational distribution for
// linear cost functions in the given processor order (root last),
// applying Theorem 2's participation criterion and Theorem 1's closed
// form. It runs in O(p²) time (a suffix scan per processor).
func SolveLinearRational(lps []LinearProcessor, n int) (LinearSolution, error) {
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

	// Decide participation back to front: Pi is kept iff
	// alpha_i <= D(kept processors after i). The last processor (the
	// root) is always kept: its alpha is 0 by convention, and
	// Theorem 2 only constrains i in [1, p-1].
	kept := make([]LinearProcessor, 0, p)
	keepFlags := make([]bool, p)
	keepFlags[p-1] = true
	kept = append(kept, lps[p-1])
	for i := p - 2; i >= 0; i-- {
		d := D(kept)
		if lps[i].Alpha <= d {
			keepFlags[i] = true
			// Prepend: kept is ordered like the processor list.
			kept = append([]LinearProcessor{lps[i]}, kept...)
		}
	}
	copy(sol.Kept, keepFlags)

	// Theorem 1 on the kept set.
	dAll := D(kept)
	if dAll == 0 {
		// An infinitely fast kept processor: give it everything.
		for i := range lps {
			if keepFlags[i] && lps[i].Alpha+lps[i].Beta == 0 {
				sol.Shares[i] = float64(n)
				return sol, nil
			}
		}
		// n == 0 or a degenerate set: all shares stay zero.
		return sol, nil
	}
	t := float64(n) * dAll
	sol.Makespan = t
	prod := 1.0
	for i := range lps {
		if !keepFlags[i] {
			continue
		}
		ab := lps[i].Alpha + lps[i].Beta
		sol.Shares[i] = prod / ab * t
		prod *= lps[i].Beta / ab
	}
	return sol, nil
}

// SolveLinear computes an integer distribution for linear processors:
// the rational closed form of Theorems 1-2 followed by the Section 3.3
// rounding scheme. Per Section 4.4 the result is guaranteed within
// sum_j Tcomm(j,1) + max_i Tcomp(i,1) of the optimal integer makespan.
func SolveLinear(procs []Processor, n int) (Result, error) {
	lps, err := ExtractLinear(procs)
	if err != nil {
		return Result{}, err
	}
	rat, err := SolveLinearRational(lps, n)
	if err != nil {
		return Result{}, err
	}
	dist := RoundShares(rat.Shares, n)
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}, nil
}
