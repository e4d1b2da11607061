// Package core implements the paper's primary contribution: static
// load-balancing of scatter operations on heterogeneous grids.
//
// The setting (Section 3.1 of the paper): p processors P1..Pp must
// process n independent data items initially held by the root. The root
// sends each processor its share in turn (single-port model), so
// processor Pi starts receiving only after P1..P(i-1) have been served,
// and finishes at
//
//	Ti = sum_{j<=i} Tcomm(j, nj) + Tcomp(i, ni)            (Eq. 1)
//
// The goal is a distribution n1..np, sum ni = n, minimizing the
// makespan T = max_i Ti (Eq. 2). By convention the root processor is
// ordered last (Pp) and has a zero communication cost to itself.
//
// The package provides, in increasing order of assumptions and speed:
//
//   - Algorithm1: exact dynamic program, O(p·n²), for arbitrary
//     non-negative cost functions.
//   - Algorithm2: the optimized exact dynamic program (binary-searched
//     crossover plus early break), for increasing cost functions.
//   - SolveLinear: the closed-form solution of Section 4 (Theorems 1-2)
//     for linear cost functions, O(p²) after pruning.
//   - Heuristic: the guaranteed linear-programming heuristic of Section
//     3.3 for affine cost functions, with the paper's rounding scheme
//     and the Eq. (4) optimality gap bound.
//
// plus the Theorem 3 ordering policy (OrderDecreasingBandwidth), the
// Section 3.4 root-selection procedure (ChooseRoot), the uniform
// baseline of the original application (Uniform), and evaluation
// helpers (FinishTimes, Makespan).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cost"
)

// Processor models one computational node as seen from the root: its
// link and its speed. This matches the paper's characterization of Pi
// by the two functions Tcomm(i, x) and Tcomp(i, x).
type Processor struct {
	// Name identifies the processor in reports (e.g. "caseb").
	Name string
	// Comm is the time for this processor to receive x items from the
	// root. The root itself uses cost.Zero.
	Comm cost.Function
	// Comp is the time for this processor to compute x items.
	Comp cost.Function
}

// Validate checks that the processor has both cost functions.
func (p Processor) Validate() error {
	if p.Comm == nil {
		return fmt.Errorf("core: processor %q has no communication cost function", p.Name)
	}
	if p.Comp == nil {
		return fmt.Errorf("core: processor %q has no computation cost function", p.Name)
	}
	return nil
}

// ValidateProcessors checks a processor list for use by the solvers.
func ValidateProcessors(procs []Processor) error {
	if len(procs) == 0 {
		return errors.New("core: no processors")
	}
	for i, p := range procs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: processor %d: %w", i, err)
		}
	}
	return nil
}

// Distribution is the number of data items assigned to each processor,
// in the same order as the processor list (root last).
type Distribution []int

// Sum returns the total number of items in the distribution.
func (d Distribution) Sum() int {
	total := 0
	for _, x := range d {
		total += x
	}
	return total
}

// Validate checks that the distribution has one non-negative share per
// processor and sums to n.
func (d Distribution) Validate(p, n int) error {
	if len(d) != p {
		return fmt.Errorf("core: distribution has %d shares for %d processors", len(d), p)
	}
	for i, x := range d {
		if x < 0 {
			return fmt.Errorf("core: share %d is negative (%d)", i, x)
		}
	}
	if s := d.Sum(); s != n {
		return fmt.Errorf("core: distribution sums to %d, want %d", s, n)
	}
	return nil
}

// FinishTimes evaluates Eq. (1): the time at which each processor
// finishes its computation under the single-port model, with processors
// served in list order.
func FinishTimes(procs []Processor, dist Distribution) []float64 {
	times := make([]float64, len(dist))
	commSoFar := 0.0
	for i, ni := range dist {
		commSoFar += procs[i].Comm.Eval(ni)
		times[i] = commSoFar + procs[i].Comp.Eval(ni)
	}
	return times
}

// Makespan evaluates Eq. (2): the overall completion time of the
// scatter plus computation phase.
func Makespan(procs []Processor, dist Distribution) float64 {
	max := 0.0
	for _, t := range FinishTimes(procs, dist) {
		if t > max {
			max = t
		}
	}
	return max
}

// Uniform is the baseline distribution of the original application: an
// MPI_Scatter sends floor(n/p) items to everyone; we assign the
// remaining n mod p items one each to the first ranks, which is how the
// motivating code's "remaining items" handling behaves.
func Uniform(p, n int) Distribution {
	if p <= 0 {
		return nil
	}
	d := make(Distribution, p)
	base, rem := n/p, n%p
	for i := range d {
		d[i] = base
		if i < rem {
			d[i]++
		}
	}
	return d
}

// Result is the outcome of a distribution computation.
type Result struct {
	// Distribution holds the computed integer shares.
	Distribution Distribution
	// Makespan is the predicted completion time of the distribution
	// under Eq. (2).
	Makespan float64
}

// Solver computes a distribution of n items over procs (root last).
// All solvers in this package satisfy it.
type Solver func(procs []Processor, n int) (Result, error)

// bandwidthProbe is the item count used to estimate a link's marginal
// per-item cost when ordering processors. It is large enough to
// amortize any affine latency term.
const bandwidthProbe = 1024

// MarginalCommCost estimates the per-item communication cost of p's
// link by the secant slope of Tcomm between 1 item and bandwidthProbe
// items. For linear costs this is exactly alpha; for affine costs it is
// alpha up to the amortized latency.
func MarginalCommCost(p Processor) float64 {
	lo, hi := p.Comm.Eval(1), p.Comm.Eval(bandwidthProbe)
	return (hi - lo) / float64(bandwidthProbe-1)
}

// OrderDecreasingBandwidth returns a permutation of 0..p-1 implementing
// the Theorem 3 ordering policy: processors sorted by decreasing link
// bandwidth (i.e. increasing marginal communication cost), with the
// root processor — identified by rootIndex — placed last. The sort is
// stable so equal-bandwidth processors keep their relative order.
//
// Section 4.4 proves that with linear costs this ordering, combined
// with the Section 3.3 rounding, is guaranteed near-optimal; the paper
// recommends it as the general policy.
func OrderDecreasingBandwidth(procs []Processor, rootIndex int) []int {
	return orderByComm(procs, rootIndex, false)
}

// OrderIncreasingBandwidth is the adversarial ordering used by the
// paper's third experiment (Figure 4): processors sorted by increasing
// bandwidth, root still last.
func OrderIncreasingBandwidth(procs []Processor, rootIndex int) []int {
	return orderByComm(procs, rootIndex, true)
}

func orderByComm(procs []Processor, rootIndex int, ascendingBandwidth bool) []int {
	order := make([]int, 0, len(procs))
	for i := range procs {
		if i != rootIndex {
			order = append(order, i)
		}
	}
	// Insertion sort: stable and fine at these sizes.
	less := func(a, b int) bool {
		ca, cb := MarginalCommCost(procs[a]), MarginalCommCost(procs[b])
		if ascendingBandwidth {
			return ca > cb // slowest link (lowest bandwidth) first
		}
		return ca < cb // fastest link (highest bandwidth) first
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	if rootIndex >= 0 && rootIndex < len(procs) {
		order = append(order, rootIndex)
	}
	return order
}

// Permute returns the processors reordered by the given permutation.
func Permute(procs []Processor, order []int) []Processor {
	out := make([]Processor, len(order))
	for i, idx := range order {
		out[i] = procs[idx]
	}
	return out
}

// RootChoice is one candidate root for the Section 3.4 selection: the
// time to move the whole data set from its original location C to this
// root, and the processor list as seen from this root (root last).
type RootChoice struct {
	// Name identifies the candidate root.
	Name string
	// Transfer is the time to ship all n items from the data's
	// original computer C to this root; zero when the data is already
	// local.
	Transfer float64
	// Procs is the processor list with communication costs measured
	// from this candidate root, ordered with the root last.
	Procs []Processor
}

// RootEvaluation records the outcome of evaluating one candidate root.
type RootEvaluation struct {
	// Choice echoes the evaluated candidate.
	Choice RootChoice
	// Result is the distribution computed for this candidate.
	Result Result
	// Total is Transfer plus the distribution's makespan; the best
	// root minimizes Total.
	Total float64
}

// ChooseRoot implements Section 3.4: evaluate every candidate root by
// adding the data-transfer time from the data's original location to
// the candidate's balanced makespan, and return the index of the
// minimizer along with every evaluation.
func ChooseRoot(n int, candidates []RootChoice, solve Solver) (int, []RootEvaluation, error) {
	if len(candidates) == 0 {
		return -1, nil, errors.New("core: no root candidates")
	}
	evals := make([]RootEvaluation, len(candidates))
	best := -1
	for i, c := range candidates {
		res, err := solve(c.Procs, n)
		if err != nil {
			return -1, nil, fmt.Errorf("core: candidate %q: %w", c.Name, err)
		}
		evals[i] = RootEvaluation{
			Choice: c,
			Result: res,
			Total:  c.Transfer + res.Makespan,
		}
		if best < 0 || evals[i].Total < evals[best].Total {
			best = i
		}
	}
	return best, evals, nil
}

// BruteForce exhaustively enumerates every distribution of n items over
// the processors and returns an optimal one. Exponential; only for
// cross-validating the dynamic programs on tiny instances in tests.
func BruteForce(procs []Processor, n int) (Result, error) {
	if err := ValidateProcessors(procs); err != nil {
		return Result{}, err
	}
	if n < 0 {
		return Result{}, fmt.Errorf("core: negative item count %d", n)
	}
	p := len(procs)
	best := Result{Makespan: math.Inf(1)}
	cur := make(Distribution, p)
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == p-1 {
			cur[i] = remaining
			m := Makespan(procs, cur)
			if m < best.Makespan {
				best.Makespan = m
				best.Distribution = append(Distribution(nil), cur...)
			}
			return
		}
		for e := 0; e <= remaining; e++ {
			cur[i] = e
			rec(i+1, remaining-e)
		}
	}
	rec(0, n)
	return best, nil
}
