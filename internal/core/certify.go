package core

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/lp"
)

// This file implements the certified solve: an exact answer at the
// cost of a banded refine on affine platforms, proven equal to Algorithm 2's bit for bit
// (DESIGN.md §17).
//
//  1. Seed. Round the optimum of the paper's Eq. (3) relaxation (§3.3)
//     to integers: Theorem 1's closed form on linear platforms, one
//     float LP on affine ones.
//  2. Refine. Run the exact recurrence in a ±certifyWindow window
//     around the seed's prefix remainders (refineBand).
//  3. Certify. For every row i >= 1 and each side of its window, bound
//     from below the makespan of every distribution whose suffix sum
//     S_i = Σ_{j>=i} n_j leaves the window, with a Lagrangian bound on
//     the Eq. (3) relaxation whose multipliers come from a float LP.
//  4. Decide. If every exit bound clears the refined DP value by more
//     than the float error of a DP path, and every non-root row's
//     comm+comp is strictly increasing across its window, every optimal
//     path of Algorithm 2 lies in the window and both DPs keep the same
//     share in every cell on it.

// certifyWindow is the refine window's half-width in items. The exit
// bounds grow with the distance from the LP optimum, so the window
// only has to absorb the rounding of the seed and the integrality gap:
// 64 items certify the Table 1 platform from 1,000 to 817,101 items.
const certifyWindow = 64

// Certificate is the evidence behind a certified solve.
type Certificate struct {
	// Certified reports that every check passed: the answer is
	// Algorithm 2's, bit for bit.
	Certified bool
	// Margin is the smallest exit bound minus the refined DP value, in
	// virtual seconds: how far the weakest bound cleared the makespan.
	// It is +Inf when no distribution can leave the window (p = 1).
	Margin float64
	// Reason names the failed check of an uncertified solve; "" when
	// certified.
	Reason string
}

// SolveCertified tries to solve n items over procs exactly at the cost
// of a banded refine: it seeds a window from the Eq. (3) optimum,
// refines inside it and proves that Algorithm 2's answer lies inside.
// A certified answer is Algorithm2(procs, n) bit for bit. Only
// platforms whose every cost is a cost.Linear or cost.Affine with
// finite non-negative coefficients (zero or at least 2^-900) are
// eligible; any other platform, or a failed check, returns an
// uncertified Certificate (with the reason) and a zero Result.
func SolveCertified(procs []Processor, n int) (Result, Certificate, error) {
	if err := validateDPInput(procs, n); err != nil {
		return Result{}, Certificate{}, err
	}
	res, cert := solveCertified(procs, n)
	return res, cert, nil
}

// errNotAffine is the Reason of a platform the certificate does not
// apply to.
const errNotAffine = "costs are not all linear or affine"

// errNotStrict is the Reason of a refine whose windows hold tied
// comm+comp values, where the largest minimizing share may lie above
// Algorithm 2's crossover.
const errNotStrict = "comm+comp is not strictly increasing on a window"

// solveCertified is SolveCertified on validated input.
func solveCertified(procs []Processor, n int) (Result, Certificate) {
	co, ok := affineCoefs(procs)
	if !ok {
		return Result{}, Certificate{Reason: errNotAffine}
	}
	seed, ok := eq3Seed(co, n)
	if !ok {
		return Result{}, Certificate{Reason: "Eq. (3) seed failed"}
	}
	return certifyAround(procs, co, n, seed)
}

// affineCoef is one processor's cost coefficients:
// Tcomm(x) = commFixed + alpha·x and Tcomp(x) = compFixed + beta·x for
// x > 0.
type affineCoef struct {
	alpha, beta, commFixed, compFixed float64
}

// affineCoefs reads each processor's coefficients off its cost types.
// It accepts only cost.Linear and cost.Affine, whose fillCosts values
// are the one or two float operations the error margin accounts for.
func affineCoefs(procs []Processor) ([]affineCoef, bool) {
	co := make([]affineCoef, len(procs))
	for i, pr := range procs {
		var ok1, ok2 bool
		co[i].commFixed, co[i].alpha, ok1 = affineParts(pr.Comm)
		co[i].compFixed, co[i].beta, ok2 = affineParts(pr.Comp)
		if !ok1 || !ok2 {
			return nil, false
		}
	}
	return co, true
}

func affineParts(f cost.Function) (fixed, slope float64, ok bool) {
	switch cf := f.(type) {
	case cost.Linear:
		fixed, slope = 0, cf.PerItem
	case cost.Affine:
		fixed, slope = cf.Fixed, cf.PerItem
	default:
		return 0, 0, false
	}
	return fixed, slope, certifiable(fixed) && certifiable(slope)
}

// certifiable admits a cost coefficient that is zero or a finite float
// of at least 2^-900. Every non-zero cost the DP sums is then a normal
// float, where each rounding errs by at most a relative 2^-53 — the
// error model of the certificate's float margin.
func certifiable(x float64) bool {
	return x == 0 || (x >= 0x1p-900 && !math.IsInf(x, 1))
}

// eq3Seed rounds the optimum of the Eq. (3) relaxation to integer
// shares with the paper's scheme. Linear platforms use Theorem 1's
// closed form; affine ones solve the LP in floats.
func eq3Seed(co []affineCoef, n int) (Distribution, bool) {
	p := len(co)
	linear := true
	for _, c := range co {
		linear = linear && c.commFixed == 0 && c.compFixed == 0
	}
	var shares []float64
	if linear {
		lps := make([]LinearProcessor, p)
		for i, c := range co {
			lps[i] = LinearProcessor{Alpha: c.alpha, Beta: c.beta}
		}
		sol, err := SolveLinearRational(lps, n)
		if err != nil {
			return nil, false
		}
		shares = sol.Shares
	} else {
		prob := eq3Problem(co, n, true)
		sol, err := lp.SolveFloat(prob)
		if err != nil || sol.Status != lp.Optimal {
			return nil, false
		}
		shares = sol.X[:p]
	}
	seed := RoundShares(shares, n)
	return seed, seed.Validate(p, n) == nil
}

// eq3Problem builds Eq. (3) over the variables n_0..n_{p-1}, T:
// minimize T subject to Σ n_j = n (row 0) and, for each i (row i+1),
// Σ_{j<=i} alpha_j·n_j + beta_i·n_i - T <= -fixed_i, where fixed_i sums
// the fixed terms on processor i's finish time, or 0 without them.
// With the fixed terms dropped it is a relaxation of every integer
// distribution's makespan.
func eq3Problem(co []affineCoef, n int, fixed bool) *lp.FloatProblem {
	p := len(co)
	prob := &lp.FloatProblem{NumVars: p + 1, Objective: make([]float64, p+1)}
	prob.Objective[p] = 1
	eq := lp.FloatConstraint{Coeffs: make([]float64, p+1), Rel: lp.EQ, RHS: float64(n)}
	for j := 0; j < p; j++ {
		eq.Coeffs[j] = 1
	}
	prob.Constraints = append(prob.Constraints, eq)
	commFixed := 0.0
	for i, c := range co {
		row := lp.FloatConstraint{Coeffs: make([]float64, p+1), Rel: lp.LE}
		for j := 0; j <= i; j++ {
			row.Coeffs[j] = co[j].alpha
		}
		row.Coeffs[i] += c.beta
		row.Coeffs[p] = -1
		commFixed += c.commFixed
		if fixed {
			row.RHS = -(commFixed + c.compFixed)
		}
		prob.Constraints = append(prob.Constraints, row)
	}
	return prob
}

// certifyAround refines in the window around seed and tries to prove
// the refined answer is Algorithm 2's.
func certifyAround(procs []Processor, co []affineCoef, n int, seed Distribution) (Result, Certificate) {
	b, err := refineBand(procs, n, seed, certifyWindow)
	if err != nil {
		return Result{}, Certificate{Reason: err.Error()}
	}
	if !b.strict {
		return Result{}, Certificate{Reason: errNotStrict}
	}
	p := len(procs)
	// Every float operation of a DP path's value rounds down by at most
	// a factor (1-u), u = 2^-53, and a path's value takes at most p+2
	// of them per term, so a path whose real makespan is at least B has
	// a float value of at least B·(1 - (p+2)u). Twice that margin, and
	// one more rounding up, leaves the threshold safely above it.
	gamma := float64(p+4) * 0x1p-52
	threshold := up(b.value + up(b.value*gamma))

	cert := Certificate{Margin: math.Inf(1)}
	prob := eq3Problem(co, n, false)
	side := lp.FloatConstraint{Coeffs: make([]float64, p+1)}
	prob.Constraints = append(prob.Constraints, side)
	for i := 1; i < p; i++ {
		for _, above := range []bool{false, true} {
			rhs := b.lo[i] - 1
			if above {
				rhs = b.hi[i] + 1
			}
			if rhs < 0 || rhs > n {
				continue // no distribution leaves the window on this side
			}
			lam, nu, ok := exitDuals(prob, p, i, above, rhs)
			bound := math.Inf(-1)
			if ok {
				bound = exitBound(co, n, i, above, rhs, lam, nu)
			}
			cert.Margin = math.Min(cert.Margin, bound-b.value)
			if !(bound > threshold) {
				dir := "below"
				if above {
					dir = "above"
				}
				cert.Reason = fmt.Sprintf("row %d exit %s the window: bound %v does not clear %v", i, dir, bound, b.value)
				return Result{}, cert
			}
		}
	}
	cert.Certified = true
	return Result{Distribution: b.dist, Makespan: Makespan(procs, b.dist)}, cert
}

// exitDuals solves the exit LP of row i — Eq. (3) without fixed terms,
// plus S_i <= rhs (below) or S_i >= rhs (above) — in floats and turns
// its duals into Lagrange multipliers: lam[j] >= 0 for the finish-time
// rows, scaled so Σ lam <= 1, and nu >= 0 for the side row. They only
// have to be good, not exact: exitBound checks them.
func exitDuals(prob *lp.FloatProblem, p, i int, above bool, rhs int) ([]float64, float64, bool) {
	side := &prob.Constraints[p+1]
	for j := range side.Coeffs[:p] {
		side.Coeffs[j] = 0
		if j >= i {
			side.Coeffs[j] = 1
		}
	}
	side.Rel, side.RHS = lp.LE, float64(rhs)
	if above {
		side.Rel = lp.GE
	}
	sol, err := lp.SolveFloat(prob)
	if err != nil || sol.Status != lp.Optimal {
		return nil, 0, false
	}
	lam := make([]float64, p)
	sum := 0.0
	for j := range lam {
		lam[j] = math.Max(0, -sol.Duals[1+j])
		sum = up(sum + lam[j])
	}
	if sum > 1 {
		// Shrink a little below 1, so the sum exitBound rounds up
		// (p roundings of at most 2^-52 each) still stays at most 1.
		s := sum * (1 + float64(4*p)*0x1p-52)
		for j := range lam {
			lam[j] = math.Max(0, down(lam[j]/s))
		}
	}
	nu := sol.Duals[p+1]
	if !above {
		nu = -nu
	}
	return lam, math.Max(0, nu), true
}

// exitBound is a rigorous lower bound on the makespan of every
// distribution x (real, x >= 0, Σ x = n) with S_i <= rhs (below) or
// S_i >= rhs (above), where S_i = Σ_{j>=i} x_j, given any multipliers
// lam >= 0 with Σ lam <= 1 and nu >= 0. With T >= Σ_k lam_k·t_k for the
// finish times t_k (fixed terms dropped), T >= Σ_j c_j·x_j where
// c_j = alpha_j·Σ_{k>=j} lam_k + beta_j·lam_j; adding nu times the side
// constraint's slack gives
//
//	below:  T >= n·min_j(c_j + nu·[j>=i]) - nu·rhs
//	above:  T >= n·min_j(c_j - nu·[j>=i]) + nu·rhs.
//
// Every float operation rounds toward the bound's safe side (down,
// or up on the subtracted term), so the result never exceeds the exact
// value. Multipliers outside the domain — negative, NaN, or summing
// above 1 — make the bound -Inf: nothing is claimed for them.
func exitBound(co []affineCoef, n, i int, above bool, rhs int, lam []float64, nu float64) float64 {
	if !(nu >= 0) || math.IsInf(nu, 1) {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, l := range lam {
		if !(l >= 0) {
			return math.Inf(-1)
		}
		sum = up(sum + l)
	}
	if !(sum <= 1) {
		return math.Inf(-1)
	}
	m := math.Inf(1)
	suffix := 0.0 // a lower bound on Σ_{k>=j} lam_k
	for j := len(co) - 1; j >= 0; j-- {
		suffix = down(suffix + lam[j])
		c := down(down(co[j].alpha*suffix) + down(co[j].beta*lam[j]))
		if j >= i {
			if above {
				c = down(c - nu)
			} else {
				c = down(c + nu)
			}
		}
		m = math.Min(m, c)
	}
	nm := down(float64(n) * m)
	if above {
		return down(nm + down(nu*float64(rhs)))
	}
	return down(nm - up(nu*float64(rhs)))
}

// down and up step a rounded-to-nearest result one float toward -Inf
// or +Inf, which brackets the exact value of the operation.
func down(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
func up(x float64) float64   { return math.Nextafter(x, math.Inf(1)) }
