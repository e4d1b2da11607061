package lp

import (
	"math/big"
	"math/rand"
	"testing"
)

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }
func ri(a int64) *big.Rat   { return new(big.Rat).SetInt64(a) }

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestSolveSimpleMaximization(t *testing.T) {
	// max x0 + x1  s.t.  x0 <= 4, x1 <= 3, x0 + x1 <= 5
	// encoded as min -x0 - x1; optimum 5 at e.g. (4,1) or (2,3).
	p := &Problem{
		NumVars:   2,
		Objective: []*big.Rat{ri(-1), ri(-1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1)}, Rel: LE, RHS: ri(4)},
			{Coeffs: []*big.Rat{nil, ri(1)}, Rel: LE, RHS: ri(3)},
			{Coeffs: []*big.Rat{ri(1), ri(1)}, Rel: LE, RHS: ri(5)},
		},
	}
	sol := solveOK(t, p)
	if sol.Objective.Cmp(ri(-5)) != 0 {
		t.Errorf("objective = %s, want -5", sol.Objective.RatString())
	}
	sum := new(big.Rat).Add(sol.X[0], sol.X[1])
	if sum.Cmp(ri(5)) != 0 {
		t.Errorf("x0+x1 = %s, want 5", sum.RatString())
	}
}

func TestSolveEqualityConstraint(t *testing.T) {
	// min 2*x0 + 3*x1  s.t.  x0 + x1 = 10  -> all on x0: (10, 0), obj 20.
	p := &Problem{
		NumVars:   2,
		Objective: []*big.Rat{ri(2), ri(3)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1), ri(1)}, Rel: EQ, RHS: ri(10)},
		},
	}
	sol := solveOK(t, p)
	if sol.Objective.Cmp(ri(20)) != 0 {
		t.Errorf("objective = %s, want 20", sol.Objective.RatString())
	}
	if sol.X[0].Cmp(ri(10)) != 0 || sol.X[1].Sign() != 0 {
		t.Errorf("x = (%s, %s), want (10, 0)", sol.X[0].RatString(), sol.X[1].RatString())
	}
}

func TestSolveGEConstraints(t *testing.T) {
	// min x0 + 2*x1  s.t.  x0 + x1 >= 4, x1 >= 1 -> (3, 1), obj 5.
	p := &Problem{
		NumVars:   2,
		Objective: []*big.Rat{ri(1), ri(2)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1), ri(1)}, Rel: GE, RHS: ri(4)},
			{Coeffs: []*big.Rat{nil, ri(1)}, Rel: GE, RHS: ri(1)},
		},
	}
	sol := solveOK(t, p)
	if sol.Objective.Cmp(ri(5)) != 0 {
		t.Errorf("objective = %s, want 5", sol.Objective.RatString())
	}
}

func TestSolveNegativeRHSNormalization(t *testing.T) {
	// min x0 s.t. -x0 <= -3  (i.e. x0 >= 3) -> 3.
	p := &Problem{
		NumVars:   1,
		Objective: []*big.Rat{ri(1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(-1)}, Rel: LE, RHS: ri(-3)},
		},
	}
	sol := solveOK(t, p)
	if sol.X[0].Cmp(ri(3)) != 0 {
		t.Errorf("x0 = %s, want 3", sol.X[0].RatString())
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x0 <= 1 and x0 >= 2 cannot hold.
	p := &Problem{
		NumVars:   1,
		Objective: []*big.Rat{ri(1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1)}, Rel: LE, RHS: ri(1)},
			{Coeffs: []*big.Rat{ri(1)}, Rel: GE, RHS: ri(2)},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x0 with no upper bound on x0.
	p := &Problem{
		NumVars:   1,
		Objective: []*big.Rat{ri(-1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1)}, Rel: GE, RHS: ri(0)},
		},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveExactRationals(t *testing.T) {
	// min x0 s.t. 3*x0 >= 1 -> exactly 1/3, which floats cannot hold.
	p := &Problem{
		NumVars:   1,
		Objective: []*big.Rat{ri(1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(3)}, Rel: GE, RHS: ri(1)},
		},
	}
	sol := solveOK(t, p)
	if sol.X[0].Cmp(r(1, 3)) != 0 {
		t.Errorf("x0 = %s, want exactly 1/3", sol.X[0].RatString())
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	// min -0.75*x0 + 150*x1 - 0.02*x2 + 6*x3 (Beale's cycling example)
	p := &Problem{
		NumVars: 4,
		Objective: []*big.Rat{
			r(-3, 4), ri(150), r(-1, 50), ri(6),
		},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{r(1, 4), ri(-60), r(-1, 25), ri(9)}, Rel: LE, RHS: ri(0)},
			{Coeffs: []*big.Rat{r(1, 2), ri(-90), r(-1, 50), ri(3)}, Rel: LE, RHS: ri(0)},
			{Coeffs: []*big.Rat{nil, nil, ri(1)}, Rel: LE, RHS: ri(1)},
		},
	}
	sol := solveOK(t, p)
	if sol.Objective.Cmp(r(-1, 20)) != 0 {
		t.Errorf("objective = %s, want -1/20", sol.Objective.RatString())
	}
}

func TestSolveRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero; the
	// solver must drive it out or tolerate the redundant row.
	p := &Problem{
		NumVars:   2,
		Objective: []*big.Rat{ri(1), ri(1)},
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1), ri(1)}, Rel: EQ, RHS: ri(4)},
			{Coeffs: []*big.Rat{ri(1), ri(1)}, Rel: EQ, RHS: ri(4)},
			{Coeffs: []*big.Rat{ri(2), ri(2)}, Rel: EQ, RHS: ri(8)},
		},
	}
	sol := solveOK(t, p)
	if sol.Objective.Cmp(ri(4)) != 0 {
		t.Errorf("objective = %s, want 4", sol.Objective.RatString())
	}
}

func TestSolveRejectsBadProblems(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 0}); err == nil {
		t.Error("zero-variable problem accepted")
	}
	p := &Problem{
		NumVars:     1,
		Constraints: []Constraint{{Coeffs: []*big.Rat{ri(1), ri(2)}, Rel: LE, RHS: ri(1)}},
	}
	if _, err := Solve(p); err == nil {
		t.Error("constraint wider than the variable count accepted")
	}
	p2 := &Problem{
		NumVars:     1,
		Constraints: []Constraint{{Coeffs: []*big.Rat{ri(1)}, Rel: LE}},
	}
	if _, err := Solve(p2); err == nil {
		t.Error("nil RHS accepted")
	}
}

func TestSolveZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	p := &Problem{
		NumVars: 2,
		Constraints: []Constraint{
			{Coeffs: []*big.Rat{ri(1), ri(1)}, Rel: EQ, RHS: ri(7)},
		},
	}
	sol := solveOK(t, p)
	sum := new(big.Rat).Add(sol.X[0], sol.X[1])
	if sum.Cmp(ri(7)) != 0 {
		t.Errorf("x0+x1 = %s, want 7", sum.RatString())
	}
	if sol.Objective.Sign() != 0 {
		t.Errorf("objective = %s, want 0", sol.Objective.RatString())
	}
}

// feasible reports whether x satisfies every constraint of p exactly.
func feasible(p *Problem, x []*big.Rat) bool {
	for _, v := range x {
		if v.Sign() < 0 {
			return false
		}
	}
	for _, c := range p.Constraints {
		lhs := new(big.Rat)
		for j, coef := range c.Coeffs {
			if coef == nil {
				continue
			}
			lhs.Add(lhs, new(big.Rat).Mul(coef, x[j]))
		}
		switch c.Rel {
		case LE:
			if lhs.Cmp(c.RHS) > 0 {
				return false
			}
		case GE:
			if lhs.Cmp(c.RHS) < 0 {
				return false
			}
		case EQ:
			if lhs.Cmp(c.RHS) != 0 {
				return false
			}
		}
	}
	return true
}

// TestSolveRandomFeasibilityAndOptimality generates random bounded LPs,
// checks the returned point is feasible, and checks no random feasible
// point beats it.
func TestSolveRandomFeasibilityAndOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nv := 1 + rng.Intn(4)
		nc := 1 + rng.Intn(4)
		p := &Problem{NumVars: nv}
		p.Objective = make([]*big.Rat, nv)
		for j := range p.Objective {
			p.Objective[j] = ri(int64(rng.Intn(11) - 5))
		}
		for i := 0; i < nc; i++ {
			c := Constraint{Rel: LE, RHS: ri(int64(1 + rng.Intn(20)))}
			c.Coeffs = make([]*big.Rat, nv)
			for j := range c.Coeffs {
				c.Coeffs[j] = ri(int64(rng.Intn(5)))
			}
			p.Constraints = append(p.Constraints, c)
		}
		// Box constraints keep the problem bounded.
		for j := 0; j < nv; j++ {
			c := Constraint{Rel: LE, RHS: ri(10), Coeffs: make([]*big.Rat, nv)}
			c.Coeffs[j] = ri(1)
			p.Constraints = append(p.Constraints, c)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for a bounded feasible LP", trial, sol.Status)
		}
		if !feasible(p, sol.X) {
			t.Fatalf("trial %d: solution %v infeasible", trial, sol.X)
		}
		// Monte-Carlo optimality probe.
		for probe := 0; probe < 50; probe++ {
			x := make([]*big.Rat, nv)
			for j := range x {
				x[j] = r(int64(rng.Intn(100)), 10)
			}
			if !feasible(p, x) {
				continue
			}
			obj := new(big.Rat)
			for j := range x {
				obj.Add(obj, new(big.Rat).Mul(p.Objective[j], x[j]))
			}
			if obj.Cmp(sol.Objective) < 0 {
				t.Fatalf("trial %d: random point %v beats the optimum (%s < %s)",
					trial, x, obj.RatString(), sol.Objective.RatString())
			}
		}
	}
}

func TestRelationString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("relation strings wrong")
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
}
