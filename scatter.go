// Package scatter load-balances scatter operations for grid computing.
//
// It is the public face of a reproduction of S. Genaud, A. Giersch and
// F. Vivien, "Load-Balancing Scatter Operations for Grid Computing"
// (INRIA RR-4770, 2003): given heterogeneous processors described by
// communication and computation cost functions, it computes the data
// distribution n1..np minimizing the completion time of a single-port
// scatter followed by independent per-item computation,
//
//	T = max_i ( sum_{j<=i} Tcomm(j, nj) + Tcomp(i, ni) ),
//
// to be fed to an MPI_Scatterv-style primitive in place of a uniform
// MPI_Scatter.
//
// # Quick start
//
//	procs := []scatter.Processor{
//	    {Name: "fast", Comm: scatter.LinearCost(1e-5), Comp: scatter.LinearCost(0.005)},
//	    {Name: "slow", Comm: scatter.LinearCost(8e-5), Comp: scatter.LinearCost(0.016)},
//	    {Name: "root", Comm: scatter.FreeCost(), Comp: scatter.LinearCost(0.009)},
//	}
//	procs = scatter.Order(procs) // Theorem 3: descending bandwidth, root last
//	res, err := scatter.Balance(procs, 817101)
//	// res.Distribution -> counts for MPI_Scatterv; res.Makespan -> predicted time
//
// Balance picks the fastest applicable solver automatically: the
// closed-form solution for linear costs, the guaranteed LP heuristic
// for affine costs, and the exact dynamic programs otherwise. The
// explicit solvers (BalanceExact, BalanceDP, BalanceHeuristic,
// BalanceLinear) are available when the choice matters.
package scatter

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// Processor describes one computational node: its name, the time to
// receive x items from the root (Comm), and the time to compute x
// items (Comp). The root processor itself should use FreeCost for Comm
// and be placed last.
type Processor = core.Processor

// CostFunction maps an item count to a duration in seconds.
type CostFunction = cost.Function

// Distribution is the per-processor item counts, in processor order.
type Distribution = core.Distribution

// Result is a computed distribution with its predicted makespan.
type Result = core.Result

// Platform is a JSON-loadable grid description (machines, CPU counts,
// per-item costs); see LoadPlatform and Table1.
type Platform = platform.Platform

// Timeline is the per-processor schedule (idle/receive/compute
// segments) of a distribution; see Predict.
type Timeline = schedule.Timeline

// LinearCost returns the cost function perItem*x, the model of the
// paper's Section 4 (alpha and beta constants).
func LinearCost(perItem float64) CostFunction { return cost.Linear{PerItem: perItem} }

// AffineCost returns the cost function fixed + perItem*x (for x > 0),
// the model required by the guaranteed heuristic.
func AffineCost(fixed, perItem float64) CostFunction {
	return cost.Affine{Fixed: fixed, PerItem: perItem}
}

// FreeCost returns the identically-zero cost function (the root's
// communication with itself).
func FreeCost() CostFunction { return cost.Zero }

// TableCost returns a cost function backed by measured per-count
// values (values[x] = cost of x items), extrapolating linearly past
// the end; declare increasing to enable the optimized exact solver.
func TableCost(values []float64, increasing bool) CostFunction {
	return cost.Table{Values: values, Increasing: increasing}
}

// Order returns the processors reordered by the paper's Theorem 3
// policy: decreasing link bandwidth, with the root — assumed to be the
// last element of the input — kept last.
func Order(procs []Processor) []Processor {
	if len(procs) == 0 {
		return nil
	}
	order := core.OrderDecreasingBandwidth(procs, len(procs)-1)
	return core.Permute(procs, order)
}

// Balance computes a distribution of n items over the processors
// (root last), choosing the fastest applicable algorithm from the
// processors' cost-function classes:
//
//   - all costs linear: the closed-form solution of Theorems 1-2 plus
//     the rounding scheme (O(p²));
//   - all costs affine: the guaranteed LP heuristic of Section 3.3
//     (optimal within sum_j Tcomm(j,1) + max_i Tcomp(i,1));
//   - all costs increasing: the exact optimized dynamic program
//     (Algorithm 2, O(p·n²) worst case);
//   - otherwise: the exact basic dynamic program (Algorithm 1).
func Balance(procs []Processor, n int) (Result, error) {
	if err := core.ValidateProcessors(procs); err != nil {
		return Result{}, err
	}
	switch core.PlatformClass(procs) {
	case cost.LinearClass:
		return core.SolveLinear(procs, n)
	case cost.AffineClass:
		return core.Heuristic(procs, n)
	case cost.Increasing:
		return core.Algorithm2(procs, n)
	default:
		return core.Algorithm1(procs, n)
	}
}

// BalanceExact computes the provably optimal integer distribution with
// the basic dynamic program (Algorithm 1). It only requires the cost
// functions to be non-negative and null at zero, and runs in O(p·n²).
func BalanceExact(procs []Processor, n int) (Result, error) {
	return core.Algorithm1(procs, n)
}

// BalanceDP computes the optimal integer distribution with the
// optimized dynamic program (Algorithm 2); the cost functions must be
// increasing.
func BalanceDP(procs []Processor, n int) (Result, error) {
	return core.Algorithm2(procs, n)
}

// BalanceHeuristic computes a distribution with the guaranteed LP
// heuristic of Section 3.3; the cost functions must be affine. The
// result's makespan exceeds the optimum by at most GuaranteeBound.
func BalanceHeuristic(procs []Processor, n int) (Result, error) {
	return core.Heuristic(procs, n)
}

// BalanceLinear computes a distribution with the closed-form solution
// of Section 4 (Theorems 1-2) plus rounding; the cost functions must
// be linear.
func BalanceLinear(procs []Processor, n int) (Result, error) {
	return core.SolveLinear(procs, n)
}

// Uniform returns the baseline distribution of a plain MPI_Scatter:
// floor(n/p) items each, remainder to the first ranks.
func Uniform(p, n int) Distribution { return core.Uniform(p, n) }

// Predict builds the full per-processor timeline of executing dist on
// the processors under the single-port model: when each processor
// idles, receives and computes, plus makespan, imbalance and stair
// area.
func Predict(procs []Processor, dist Distribution) (Timeline, error) {
	return schedule.Build(procs, dist)
}

// Makespan evaluates the completion time of dist on the processors
// (Eq. 2 of the paper).
func Makespan(procs []Processor, dist Distribution) float64 {
	return core.Makespan(procs, dist)
}

// GuaranteeBound returns the additive optimality gap of the heuristic
// and the rounding schemes (Eq. 4): sum_j Tcomm(j,1) + max_i Tcomp(i,1).
func GuaranteeBound(procs []Processor) float64 { return core.GuaranteeBound(procs) }

// LoadPlatform parses and validates a JSON platform description.
func LoadPlatform(data []byte) (Platform, error) { return platform.Parse(data) }

// Table1 returns the paper's 16-processor, two-site testbed.
func Table1() Platform { return platform.Table1() }

// PlatformProcessors expands a platform into processors ordered by the
// Theorem 3 policy (descending bandwidth, root last).
func PlatformProcessors(p Platform) ([]Processor, error) {
	return p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
}

// MultiRoundPlan is a multi-installment scatter plan; see BalanceMultiRound.
type MultiRoundPlan = core.MultiRoundResult

// BalanceMultiRound computes an R-round (multi-installment) scatter
// plan for affine cost functions: the root serves every processor R
// times, so far processors start computing on their first installment
// while the rest of their data is still queued — shrinking the stair
// effect on communication-bound platforms at the price of more
// messages. One round is exactly the single-scatter problem.
func BalanceMultiRound(procs []Processor, n, rounds int) (MultiRoundPlan, error) {
	return core.MultiRound(procs, n, rounds)
}
