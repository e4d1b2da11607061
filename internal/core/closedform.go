package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// function is not linear or any constant is NaN or infinite.
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
		if !finite(out[i].Alpha) || !finite(out[i].Beta) {
			return nil, fmt.Errorf("core: processor %d (%s) has a cost constant that is NaN or infinite", i, p.Name)
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
func D(lps []LinearProcessor) float64 { return chainD(lps, 0) }

// chainD is D over a processor chain whose sum starts at sum0 instead
// of 0: sum0 is the term of a processor that follows the chain without
// the product prefix, such as an overlapping root's 1/beta_p.
func chainD(chain []LinearProcessor, sum0 float64) float64 {
	sum := sum0
	prod := 1.0
	for _, lp := range chain {
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
	if err := checkLinear(lps, n); err != nil {
		return LinearSolution{}, err
	}
	sol := newLinearSolution(len(lps))
	// The last processor (the root) is always kept: its alpha is 0 by
	// convention, and Theorem 2 only constrains i in [1, p-1].
	sol.Kept[len(lps)-1] = true
	sol.Makespan = closedForm(lps, 0, n, sol.Shares, sol.Kept)
	return sol, nil
}

// checkLinear validates the input of the linear closed forms.
func checkLinear(lps []LinearProcessor, n int) error {
	if len(lps) == 0 {
		return errors.New("core: no processors")
	}
	if n < 0 {
		return fmt.Errorf("core: negative item count %d", n)
	}
	for i, lp := range lps {
		if lp.Alpha < 0 || lp.Beta < 0 {
			return fmt.Errorf("core: processor %d (%s) has negative cost constants", i, lp.Name)
		}
		if !finite(lp.Alpha) || !finite(lp.Beta) {
			return fmt.Errorf("core: processor %d (%s) has a cost constant that is NaN or infinite", i, lp.Name)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func newLinearSolution(p int) LinearSolution {
	return LinearSolution{Shares: make([]float64, p), Kept: make([]bool, p)}
}

// closedForm applies Theorems 1-2 to chain: it decides participation,
// writes the kept flags and rational shares, and returns the makespan
// t = n*D over the kept set. D's sum starts at sum0 (see chainD): 0
// when the chain ends with the root, or 1/beta_p when an overlapping
// root follows it. A processor already flagged kept stays kept.
func closedForm(chain []LinearProcessor, sum0 float64, n int, shares []float64, kept []bool) float64 {
	// Decide participation back to front: Pi is kept iff
	// alpha_i <= D(kept processors after i).
	suffix := make([]LinearProcessor, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		if kept[i] || chain[i].Alpha <= chainD(suffix, sum0) {
			kept[i] = true
			// Prepend: suffix is ordered like the chain.
			suffix = slices.Insert(suffix, 0, chain[i])
		}
	}

	// Theorem 1 on the kept set.
	d := chainD(suffix, sum0)
	if d == 0 {
		// An infinitely fast kept processor: give it everything.
		for i, lp := range chain {
			if kept[i] && lp.Alpha+lp.Beta == 0 {
				shares[i] = float64(n)
				return 0
			}
		}
		// n == 0 or a degenerate set: all shares stay zero.
		return 0
	}
	t := float64(n) * d
	prod := 1.0
	for i, lp := range chain {
		if !kept[i] {
			continue
		}
		ab := lp.Alpha + lp.Beta
		shares[i] = prod / ab * t
		prod *= lp.Beta / ab
	}
	return t
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
