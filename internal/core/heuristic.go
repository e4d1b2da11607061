package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"repro/internal/cost"
	"repro/internal/lp"
)

// AffineProcessor is a processor with affine cost functions, the
// setting of the guaranteed heuristic (Section 3.3):
// Tcomm(i,x) = CommFixed + CommPerItem*x and
// Tcomp(i,x) = CompFixed + CompPerItem*x.
type AffineProcessor struct {
	// Name identifies the processor.
	Name string
	// CommFixed and CommPerItem are the affine communication cost
	// coefficients, in seconds.
	CommFixed, CommPerItem float64
	// CompFixed and CompPerItem are the affine computation cost
	// coefficients, in seconds.
	CompFixed, CompPerItem float64
}

// Processor converts the affine description into a general Processor.
func (ap AffineProcessor) Processor() Processor {
	return Processor{
		Name: ap.Name,
		Comm: cost.Affine{Fixed: ap.CommFixed, PerItem: ap.CommPerItem},
		Comp: cost.Affine{Fixed: ap.CompFixed, PerItem: ap.CompPerItem},
	}
}

// ExtractAffine recovers affine coefficients from processors whose cost
// functions are affine (per cost.ClassOf). The coefficients are probed
// from evaluations at 1 and 2 items, which is exact for affine
// functions.
func ExtractAffine(procs []Processor) ([]AffineProcessor, error) {
	out := make([]AffineProcessor, len(procs))
	for i, p := range procs {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if c := cost.ClassOf(p.Comm); c < cost.AffineClass {
			return nil, fmt.Errorf("core: processor %d (%s) communication cost is %v, not affine", i, p.Name, c)
		}
		if c := cost.ClassOf(p.Comp); c < cost.AffineClass {
			return nil, fmt.Errorf("core: processor %d (%s) computation cost is %v, not affine", i, p.Name, c)
		}
		ap := AffineProcessor{Name: p.Name}
		ap.CommPerItem = p.Comm.Eval(2) - p.Comm.Eval(1)
		ap.CommFixed = clampNonNeg(p.Comm.Eval(1) - ap.CommPerItem)
		ap.CompPerItem = p.Comp.Eval(2) - p.Comp.Eval(1)
		ap.CompFixed = clampNonNeg(p.Comp.Eval(1) - ap.CompPerItem)
		out[i] = ap
	}
	return out, nil
}

func clampNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// ratFromFloat converts a finite float64 exactly to a rational;
// non-finite values map to zero (they are rejected earlier by
// validation, this is defensive).
func ratFromFloat(x float64) *big.Rat {
	r := new(big.Rat)
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return r
	}
	r.SetFloat64(x)
	return r
}

// RationalSolution is the exact LP relaxation optimum of Eq. (3).
type RationalSolution struct {
	// Shares are the optimal rational item counts, one per processor.
	Shares []*big.Rat
	// Makespan is the optimal rational makespan T of the relaxation.
	Makespan *big.Rat
}

// HeuristicRational solves the paper's linear program (Eq. 3) exactly
// in rationals:
//
//	minimize T  s.t.  ni >= 0,  sum ni = n,
//	                  T >= sum_{j<=i} Tcomm(j,nj) + Tcomp(i,ni)  for all i
//
// The LP treats the affine cost functions as defined for all n >= 0
// (as the paper does), so a zero share still pays the fixed term inside
// the LP; this only over-approximates the true cost and never
// invalidates the Eq. (4) guarantee.
func HeuristicRational(aps []AffineProcessor, n int) (RationalSolution, error) {
	p := len(aps)
	if p == 0 {
		return RationalSolution{}, errors.New("core: no processors")
	}
	if n < 0 {
		return RationalSolution{}, fmt.Errorf("core: negative item count %d", n)
	}

	// Variables 0..p-1: shares; variable p: the makespan T.
	prob := &lp.Problem{NumVars: p + 1}
	prob.Objective = make([]*big.Rat, p+1)
	prob.Objective[p] = big.NewRat(1, 1)

	// sum ni = n.
	eq := lp.Constraint{Rel: lp.EQ, RHS: new(big.Rat).SetInt64(int64(n))}
	eq.Coeffs = make([]*big.Rat, p+1)
	for i := 0; i < p; i++ {
		eq.Coeffs[i] = big.NewRat(1, 1)
	}
	prob.Constraints = append(prob.Constraints, eq)

	// Finish-time constraints:
	// sum_{j<=i} CommPerItem_j*nj + CompPerItem_i*ni - T
	//   <= -(sum_{j<=i} CommFixed_j + CompFixed_i).
	fixedComm := 0.0
	for i := 0; i < p; i++ {
		fixedComm += aps[i].CommFixed
		c := lp.Constraint{Rel: lp.LE}
		c.Coeffs = make([]*big.Rat, p+1)
		for j := 0; j <= i; j++ {
			c.Coeffs[j] = ratFromFloat(aps[j].CommPerItem)
		}
		compSlope := ratFromFloat(aps[i].CompPerItem)
		c.Coeffs[i] = new(big.Rat).Add(c.Coeffs[i], compSlope)
		c.Coeffs[p] = big.NewRat(-1, 1)
		c.RHS = new(big.Rat).Neg(ratFromFloat(fixedComm + aps[i].CompFixed))
		prob.Constraints = append(prob.Constraints, c)
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return RationalSolution{}, fmt.Errorf("core: heuristic LP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return RationalSolution{}, fmt.Errorf("core: heuristic LP is %v", sol.Status)
	}
	return RationalSolution{
		Shares:   sol.X[:p],
		Makespan: sol.X[p],
	}, nil
}

// Heuristic is the guaranteed heuristic of Section 3.3: solve the LP
// relaxation exactly in rationals and round with the paper's scheme.
// It requires affine cost functions; its makespan T' satisfies
// Eq. (4): Topt <= T' <= Topt + GuaranteeBound(procs).
func Heuristic(procs []Processor, n int) (Result, error) {
	aps, err := ExtractAffine(procs)
	if err != nil {
		return Result{}, err
	}
	rat, err := HeuristicRational(aps, n)
	if err != nil {
		return Result{}, err
	}
	dist, err := RoundRatShares(rat.Shares, n)
	if err != nil {
		return Result{}, err
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}, nil
}

// GuaranteeBound computes the additive optimality gap of Eq. (4):
// sum_j Tcomm(j, 1) + max_i Tcomp(i, 1).
func GuaranteeBound(procs []Processor) float64 {
	sum := 0.0
	maxComp := 0.0
	for _, p := range procs {
		sum += p.Comm.Eval(1)
		if c := p.Comp.Eval(1); c > maxComp {
			maxComp = c
		}
	}
	return sum + maxComp
}

// RoundRatShares applies the paper's rounding scheme (Section 3.3) to
// exact rational shares that sum to n: repeatedly round, to the nearest
// integer in the direction that cancels the accumulated error, the
// share closest to that integer; fold the final error into the last
// remaining share. Every share moves by strictly less than 1 and the
// result sums exactly to n.
func RoundRatShares(shares []*big.Rat, n int) (Distribution, error) {
	p := len(shares)
	if p == 0 {
		return nil, errors.New("core: no shares to round")
	}
	total := new(big.Rat)
	for i, s := range shares {
		if s == nil {
			return nil, fmt.Errorf("core: share %d is nil", i)
		}
		if s.Sign() < 0 {
			return nil, fmt.Errorf("core: share %d is negative (%s)", i, s.RatString())
		}
		total.Add(total, s)
	}
	if total.Cmp(new(big.Rat).SetInt64(int64(n))) != 0 {
		return nil, fmt.Errorf("core: shares sum to %s, want %d", total.RatString(), n)
	}

	dist := make(Distribution, p)
	remaining := make([]int, 0, p)
	for i := range shares {
		remaining = append(remaining, i)
	}
	err := new(big.Rat) // accumulated rounding error n'_i - n_i

	for len(remaining) > 1 {
		// Pick the remaining share nearest to its target integer:
		// nearest integer when err == 0, ceiling when err < 0 (we
		// under-shot, round someone up), floor when err > 0.
		bestIdx := -1
		bestPos := -1
		var bestDist *big.Rat
		var bestTarget *big.Int
		for pos, i := range remaining {
			target, dist := roundingTarget(shares[i], err.Sign())
			if bestIdx < 0 || dist.Cmp(bestDist) < 0 {
				bestIdx, bestPos, bestDist, bestTarget = i, pos, dist, target
			}
		}
		rounded := new(big.Rat).SetInt(bestTarget)
		diff := new(big.Rat).Sub(rounded, shares[bestIdx])
		err.Add(err, diff)
		if !bestTarget.IsInt64() {
			return nil, fmt.Errorf("core: rounded share %s overflows int64", bestTarget)
		}
		dist[bestIdx] = int(bestTarget.Int64())
		if dist[bestIdx] < 0 {
			dist[bestIdx] = 0 // cannot happen for non-negative shares; defensive
		}
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}

	// Last share absorbs the error: n'_k = n_k - err, which is exactly
	// n minus the other integer shares.
	k := remaining[0]
	rest := 0
	for i, v := range dist {
		if i != k {
			rest += v
		}
	}
	dist[k] = n - rest
	if dist[k] < 0 {
		return nil, fmt.Errorf("core: rounding drove share %d negative (%d)", k, dist[k])
	}
	return dist, nil
}

// roundingTarget returns the integer a share should be rounded to given
// the sign of the accumulated error, and the distance to that integer.
// errSign < 0 means previous roundings under-shot, so we round up;
// errSign > 0 rounds down; errSign == 0 rounds to nearest.
func roundingTarget(share *big.Rat, errSign int) (*big.Int, *big.Rat) {
	floor := new(big.Int).Quo(share.Num(), share.Denom())
	// big.Int Quo truncates toward zero; shares are non-negative so
	// truncation is the floor.
	fl := new(big.Rat).SetInt(floor)
	frac := new(big.Rat).Sub(share, fl)
	ceil := floor
	if frac.Sign() != 0 {
		ceil = new(big.Int).Add(floor, big.NewInt(1))
	}
	switch {
	case errSign < 0:
		// Round up: distance is ceil - share.
		d := new(big.Rat).Sub(new(big.Rat).SetInt(ceil), share)
		return ceil, d
	case errSign > 0:
		// Round down: distance is share - floor.
		return floor, frac
	default:
		// Nearest.
		up := new(big.Rat).Sub(new(big.Rat).SetInt(ceil), share)
		if frac.Cmp(up) <= 0 {
			return floor, frac
		}
		return ceil, up
	}
}

// RoundShares is a float64 adapter around the paper's rounding scheme
// for callers (like the closed-form linear solver) whose rational
// shares were computed in floating point. The float shares are
// converted exactly to rationals and rescaled so they sum to exactly n
// before rounding; each resulting integer share differs from its input
// by less than 1 plus the float imprecision. n must be non-negative
// (every caller validates it): the rescaled shares are then
// non-negative and sum to n exactly, and the rounding keeps its
// accumulated error in (-1, 1), so RoundRatShares cannot fail.
func RoundShares(shares []float64, n int) Distribution {
	p := len(shares)
	if p == 0 {
		return nil
	}
	rats := make([]*big.Rat, p)
	total := new(big.Rat)
	for i, s := range shares {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			s = 0
		}
		r := new(big.Rat)
		r.SetFloat64(s)
		rats[i] = r
		total.Add(total, r)
	}
	want := new(big.Rat).SetInt64(int64(n))
	if total.Sign() == 0 {
		// Degenerate: spread everything on the last processor (the
		// root), which is always present.
		d := make(Distribution, p)
		d[p-1] = n
		return d
	}
	if total.Cmp(want) != 0 {
		scale := new(big.Rat).Quo(want, total)
		for i := range rats {
			rats[i].Mul(rats[i], scale)
		}
	}
	d, err := RoundRatShares(rats, n)
	if err != nil {
		panic("core: internal error: " + err.Error())
	}
	return d
}
