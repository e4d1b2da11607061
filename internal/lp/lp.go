// Package lp solves linear programs, in float64 (SolveFloat) and
// exactly over the rationals (Solve, on math/big).
//
// The paper's guaranteed heuristic (Section 3.3) codes the scatter
// load-balancing problem as the linear program (Eq. 3)
//
//	minimize    T
//	subject to  ni >= 0                              for i in [1,p]
//	            sum_i ni = n
//	            T >= sum_{j<=i} Tcomm(j,nj) + Tcomp(i,ni)  for i in [1,p]
//
// and solves it in rationals ("we can solve the system in rational to
// obtain an optimal rational solution") with the PIP/pipLib parametric
// integer programming library, calling the step instantaneous. Here one
// pivoting engine serves every LP: a float64 two-phase simplex with
// Bland's rule (SolveFloat). Solve, the exact entry point, hands that
// engine the rounded problem, then proves the basis it stops at in
// integer arithmetic (exact.go): one fraction-free solve of the basis
// system gives every value over the basis determinant, and primal
// feasibility and every reduced cost are checked exactly. Only when a
// check fails does Solve take exact Bland steps from that basis. On
// Eq. (3) at p = 16 this takes ~1-3 ms on a 2-vCPU host, against
// 11-60 ms for the big.Rat tableau it replaced, which the tests keep as
// the reference.
package lp

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// Relation is the sense of a linear constraint.
type Relation int

const (
	// LE is "less than or equal" (<=).
	LE Relation = iota
	// GE is "greater than or equal" (>=).
	GE
	// EQ is equality (=).
	EQ
)

// String returns the usual mathematical symbol for the relation.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("rel(%d)", int(r))
	}
}

// Constraint is one linear constraint sum_j Coeffs[j]*x_j  Rel  RHS.
// Coeffs may be shorter than the number of variables; missing entries
// are zero.
type Constraint struct {
	// Coeffs are the per-variable coefficients.
	Coeffs []*big.Rat
	// Rel is the constraint sense.
	Rel Relation
	// RHS is the right-hand side.
	RHS *big.Rat
}

// Problem is a linear program in the form
//
//	minimize   sum_j Objective[j] * x_j
//	subject to Constraints, and x_j >= 0 for all j.
//
// All variables are implicitly non-negative, which matches the paper's
// formulation (shares ni >= 0, and the makespan T is non-negative
// because the cost functions are).
type Problem struct {
	// NumVars is the number of structural variables.
	NumVars int
	// Objective holds the cost coefficients (len NumVars; missing
	// entries are zero).
	Objective []*big.Rat
	// Constraints are the linear constraints.
	Constraints []Constraint
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
)

// String returns the lowercase name of the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	// Status reports whether X and Objective are meaningful.
	Status Status
	// X is the optimal assignment (len NumVars), exact rationals.
	X []*big.Rat
	// Objective is the optimal objective value.
	Objective *big.Rat
}

// Solve returns the exact optimal solution of p, or a Solution with an
// exact Infeasible or Unbounded status. It starts from the basis the
// float solver stops at on p rounded to float64 (the slack basis when
// that rounding is not finite or the basis is singular) and takes exact
// Bland steps only while that basis fails its exact check. The input
// problem is not modified.
func Solve(p *Problem) (*Solution, error) {
	if p.NumVars <= 0 {
		return nil, errors.New("lp: problem has no variables")
	}
	if len(p.Objective) > p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > p.NumVars {
			return nil, fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), p.NumVars)
		}
		if c.RHS == nil {
			return nil, fmt.Errorf("lp: constraint %d has nil RHS", i)
		}
	}

	sol := &Solution{}
	sol.Status, sol.X = newExact(p).solveFrom(floatBasis(p))
	if sol.Status != Optimal {
		return sol, nil
	}
	sol.Objective = new(big.Rat)
	for j, c := range p.Objective {
		if c != nil {
			sol.Objective.Add(sol.Objective, new(big.Rat).Mul(c, sol.X[j]))
		}
	}
	return sol, nil
}

// floatBasis rounds p to float64 and returns the basis SolveFloat stops
// at, or nil when a rounded coefficient is infinite or the solve fails.
func floatBasis(p *Problem) []int {
	finite := true
	f := func(r *big.Rat) float64 {
		if r == nil {
			return 0
		}
		v, _ := r.Float64()
		finite = finite && !math.IsInf(v, 0)
		return v
	}
	fp := &FloatProblem{NumVars: p.NumVars, Objective: make([]float64, len(p.Objective))}
	for j, c := range p.Objective {
		fp.Objective[j] = f(c)
	}
	for _, c := range p.Constraints {
		fc := FloatConstraint{Coeffs: make([]float64, len(c.Coeffs)), Rel: c.Rel, RHS: f(c.RHS)}
		for j, a := range c.Coeffs {
			fc.Coeffs[j] = f(a)
		}
		fp.Constraints = append(fp.Constraints, fc)
	}
	if !finite {
		return nil
	}
	sol, err := SolveFloat(fp)
	if err != nil {
		return nil
	}
	return sol.Basis
}

var errUnbounded = errors.New("lp: unbounded")

func flip(r Relation) Relation {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}
