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
	if len(shares) == 0 {
		return nil, errors.New("core: no shares to round")
	}
	for i, s := range shares {
		if s == nil {
			return nil, fmt.Errorf("core: share %d is nil", i)
		}
		if s.Sign() < 0 {
			return nil, fmt.Errorf("core: share %d is negative (%s)", i, s.RatString())
		}
	}
	nums, den := lp.Integers(shares)
	total := new(big.Int)
	for _, x := range nums {
		total.Add(total, x)
	}
	if total.Cmp(new(big.Int).Mul(den, big.NewInt(int64(n)))) != 0 {
		return nil, fmt.Errorf("core: shares sum to %s, want %d", new(big.Rat).SetFrac(total, den).RatString(), n)
	}
	return roundScaled(nums, den, n), nil
}

// roundScaled is the rounding scheme of RoundRatShares on the shares
// nums[i]/den, which are non-negative and sum to n over den > 0. One
// QuoRem per share splits it into its floor and its distances down to
// that floor and up to the ceiling, all over den, so picking a share
// and tracking the accumulated error (n'_i - n_i, also over den) take
// only integer comparisons and additions.
func roundScaled(nums []*big.Int, den *big.Int, n int) Distribution {
	p := len(nums)
	dist := make(Distribution, p)
	down := make([]*big.Int, p) // share - floor
	up := make([]*big.Int, p)   // ceiling - share; 0 for an integer share
	for i, x := range nums {
		q, r := new(big.Int).QuoRem(x, den, new(big.Int))
		dist[i] = int(q.Int64()) // at most n
		down[i], up[i] = r, new(big.Int)
		if r.Sign() != 0 {
			up[i].Sub(den, r)
		}
	}
	remaining := make([]int, p)
	for i := range remaining {
		remaining[i] = i
	}
	acc := new(big.Int) // accumulated rounding error n'_i - n_i

	for len(remaining) > 1 {
		// Pick the remaining share nearest to its target integer:
		// nearest integer when acc == 0 (the floor on a tie), ceiling
		// when acc < 0 (we under-shot, round someone up), floor when
		// acc > 0. The first index wins a tie between shares.
		bestPos, bestUp := -1, false
		var best *big.Int
		for pos, i := range remaining {
			d, roundUp := down[i], false
			if s := acc.Sign(); s < 0 || s == 0 && up[i].Cmp(down[i]) < 0 {
				d, roundUp = up[i], true
			}
			if bestPos < 0 || d.Cmp(best) < 0 {
				bestPos, bestUp, best = pos, roundUp, d
			}
		}
		i := remaining[bestPos]
		if bestUp {
			acc.Add(acc, up[i])
			if up[i].Sign() != 0 {
				dist[i]++
			}
		} else {
			acc.Sub(acc, down[i])
		}
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}

	// Last share absorbs the error: n'_k = n_k - acc, which is exactly
	// n minus the other integer shares. Every step keeps acc in
	// (-1, 1), so n'_k > n_k - 1 >= -1 is never negative.
	k := remaining[0]
	rest := 0
	for i, v := range dist {
		if i != k {
			rest += v
		}
	}
	dist[k] = n - rest
	return dist
}

// RoundShares is a float64 adapter around the paper's rounding scheme
// for callers (like the closed-form linear solver) whose rational
// shares were computed in floating point. NaN, infinite and negative
// shares count as 0. Each float is exactly m_i*2^e at the smallest
// exponent e among them, so the shares rescaled to sum to exactly n are
// the rationals m_i*n / sum_j m_j; each resulting integer share differs
// from its input by less than 1 plus the float imprecision. n must be
// non-negative (every caller validates it).
func RoundShares(shares []float64, n int) Distribution {
	p := len(shares)
	if p == 0 {
		return nil
	}
	mant := make([]int64, p)
	exp := make([]int, p)
	minExp := math.MaxInt
	for i, s := range shares {
		if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			continue
		}
		frac, e := math.Frexp(s)
		mant[i], exp[i] = int64(frac*(1<<53)), e-53
		minExp = min(minExp, exp[i])
	}
	if minExp == math.MaxInt {
		// Degenerate: spread everything on the last processor (the
		// root), which is always present.
		d := make(Distribution, p)
		d[p-1] = n
		return d
	}
	nums := make([]*big.Int, p)
	total := new(big.Int)
	bn := big.NewInt(int64(n))
	for i, m := range mant {
		nums[i] = big.NewInt(m)
		if m != 0 {
			nums[i].Lsh(nums[i], uint(exp[i]-minExp))
			total.Add(total, nums[i])
			nums[i].Mul(nums[i], bn)
		}
	}
	return roundScaled(nums, total, n)
}
