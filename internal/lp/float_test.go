package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func solveFloatOK(t *testing.T, p *FloatProblem) *FloatSolution {
	t.Helper()
	sol, err := SolveFloat(p)
	if err != nil {
		t.Fatalf("SolveFloat: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestSolveFloatSimple(t *testing.T) {
	// max x0+x1 s.t. x0<=4, x1<=3, x0+x1<=5 -> 5.
	p := &FloatProblem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Constraints: []FloatConstraint{
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 4},
			{Coeffs: []float64{0, 1}, Rel: LE, RHS: 3},
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 5},
		},
	}
	sol := solveFloatOK(t, p)
	if math.Abs(sol.Objective+5) > 1e-9 {
		t.Errorf("objective = %g, want -5", sol.Objective)
	}
}

func TestSolveFloatEqualityAndGE(t *testing.T) {
	p := &FloatProblem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []FloatConstraint{
			{Coeffs: []float64{1, 1}, Rel: GE, RHS: 4},
			{Coeffs: []float64{0, 1}, Rel: GE, RHS: 1},
		},
	}
	sol := solveFloatOK(t, p)
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Errorf("objective = %g, want 5", sol.Objective)
	}

	p2 := &FloatProblem{
		NumVars:   2,
		Objective: []float64{2, 3},
		Constraints: []FloatConstraint{
			{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 10},
		},
	}
	sol2 := solveFloatOK(t, p2)
	if math.Abs(sol2.Objective-20) > 1e-9 {
		t.Errorf("objective = %g, want 20", sol2.Objective)
	}
}

func TestSolveFloatInfeasibleAndUnbounded(t *testing.T) {
	inf := &FloatProblem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []FloatConstraint{
			{Coeffs: []float64{1}, Rel: LE, RHS: 1},
			{Coeffs: []float64{1}, Rel: GE, RHS: 2},
		},
	}
	sol, err := SolveFloat(inf)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}

	unb := &FloatProblem{
		NumVars:   1,
		Objective: []float64{-1},
		Constraints: []FloatConstraint{
			{Coeffs: []float64{1}, Rel: GE, RHS: 0},
		},
	}
	sol, err = SolveFloat(unb)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveFloatValidation(t *testing.T) {
	if _, err := SolveFloat(&FloatProblem{NumVars: 0}); err == nil {
		t.Error("zero variables accepted")
	}
	bad := &FloatProblem{
		NumVars:     1,
		Constraints: []FloatConstraint{{Coeffs: []float64{1}, Rel: LE, RHS: math.NaN()}},
	}
	if _, err := SolveFloat(bad); err == nil {
		t.Error("NaN RHS accepted")
	}
	wide := &FloatProblem{
		NumVars:     1,
		Constraints: []FloatConstraint{{Coeffs: []float64{1, 2}, Rel: LE, RHS: 1}},
	}
	if _, err := SolveFloat(wide); err == nil {
		t.Error("wide constraint accepted")
	}
}

func TestSolveFloatDegenerateBeale(t *testing.T) {
	p := &FloatProblem{
		NumVars:   4,
		Objective: []float64{-0.75, 150, -0.02, 6},
		Constraints: []FloatConstraint{
			{Coeffs: []float64{0.25, -60, -0.04, 9}, Rel: LE, RHS: 0},
			{Coeffs: []float64{0.5, -90, -0.02, 3}, Rel: LE, RHS: 0},
			{Coeffs: []float64{0, 0, 1, 0}, Rel: LE, RHS: 1},
		},
	}
	sol := solveFloatOK(t, p)
	if math.Abs(sol.Objective+0.05) > 1e-9 {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
}

// TestSolveFloatAgreesWithExact cross-validates the float solver
// against the exact rational solver on random bounded LPs.
func TestSolveFloatAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		nv := 1 + rng.Intn(5)
		nc := 1 + rng.Intn(5)
		fp := &FloatProblem{NumVars: nv, Objective: make([]float64, nv)}
		rp := &Problem{NumVars: nv, Objective: make([]*big.Rat, nv)}
		for j := 0; j < nv; j++ {
			c := int64(rng.Intn(11) - 5)
			fp.Objective[j] = float64(c)
			rp.Objective[j] = big.NewRat(c, 1)
		}
		addBoth := func(coeffs []int64, rel Relation, rhs int64) {
			fc := FloatConstraint{Rel: rel, RHS: float64(rhs), Coeffs: make([]float64, nv)}
			rc := Constraint{Rel: rel, RHS: big.NewRat(rhs, 1), Coeffs: make([]*big.Rat, nv)}
			for j, v := range coeffs {
				fc.Coeffs[j] = float64(v)
				rc.Coeffs[j] = big.NewRat(v, 1)
			}
			fp.Constraints = append(fp.Constraints, fc)
			rp.Constraints = append(rp.Constraints, rc)
		}
		for i := 0; i < nc; i++ {
			coeffs := make([]int64, nv)
			for j := range coeffs {
				coeffs[j] = int64(rng.Intn(5))
			}
			rels := []Relation{LE, GE, EQ}
			addBoth(coeffs, rels[rng.Intn(2)], int64(1+rng.Intn(20))) // LE or GE
		}
		for j := 0; j < nv; j++ {
			coeffs := make([]int64, nv)
			coeffs[j] = 1
			addBoth(coeffs, LE, 10)
		}
		exact, err := Solve(rp)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := SolveFloat(fp)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Status != approx.Status {
			t.Fatalf("trial %d: exact %v vs float %v", trial, exact.Status, approx.Status)
		}
		if exact.Status == Optimal {
			want, _ := exact.Objective.Float64()
			if math.Abs(approx.Objective-want) > 1e-6*(1+math.Abs(want)) {
				t.Errorf("trial %d: float objective %g, exact %g", trial, approx.Objective, want)
			}
		}
	}
}

func TestSolveFloatLargeScatterLP(t *testing.T) {
	// The multi-round shape: rounds*p share variables plus T. This
	// is the instance class that motivated the float path; it must
	// solve in well under a second.
	const p, rounds = 16, 8
	nv := rounds*p + 1
	tIdx := rounds * p
	alphas := []float64{1e-5, 1.12e-5, 1.7e-5, 2.1e-5, 2.1e-5, 3.53e-5, 3.53e-5, 3.53e-5,
		3.53e-5, 3.53e-5, 3.53e-5, 3.53e-5, 3.53e-5, 8.15e-5, 8.15e-5, 0}
	betas := []float64{0.004629, 0.009365, 0.004885, 0.016156, 0.016156, 0.009677, 0.009677,
		0.009677, 0.009677, 0.009677, 0.009677, 0.009677, 0.009677, 0.003976, 0.003976, 0.009288}
	prob := &FloatProblem{NumVars: nv, Objective: make([]float64, nv)}
	prob.Objective[tIdx] = 1
	eq := FloatConstraint{Rel: EQ, RHS: 817101, Coeffs: make([]float64, nv)}
	for v := 0; v < rounds*p; v++ {
		eq.Coeffs[v] = 1
	}
	prob.Constraints = append(prob.Constraints, eq)
	for r := 0; r < rounds; r++ {
		for i := 0; i < p; i++ {
			c := FloatConstraint{Rel: LE, Coeffs: make([]float64, nv)}
			for s := 0; s <= r; s++ {
				last := p
				if s == r {
					last = i + 1
				}
				for j := 0; j < last; j++ {
					c.Coeffs[s*p+j] += alphas[j]
				}
			}
			for s := r; s < rounds; s++ {
				c.Coeffs[s*p+i] += betas[i]
			}
			c.Coeffs[tIdx] = -1
			prob.Constraints = append(prob.Constraints, c)
		}
	}
	sol := solveFloatOK(t, prob)
	if sol.Objective < 300 || sol.Objective > 450 {
		t.Errorf("multi-round LP optimum = %g s, expected near the single-round 404 s", sol.Objective)
	}
	total := 0.0
	for v := 0; v < rounds*p; v++ {
		if sol.X[v] < -1e-6 {
			t.Fatalf("negative share %g", sol.X[v])
		}
		total += sol.X[v]
	}
	if math.Abs(total-817101) > 1e-3 {
		t.Errorf("shares sum to %g", total)
	}
}

// TestSolveFloatFeasibleAfterLongRun solves the multi-round LP of a
// comm-bound Table 1 (links 200x slower, 8 rounds, 50,000 items), where
// Bland's rule takes enough pivots for the tableau's rounding error to
// build up: without rebuilding the tableau from the original rows, the
// point it ends at misses the last row by ~1.6 s and its T, 96.0923 s,
// undercuts the exact optimum, 96.3207253 s. The point returned must
// satisfy every row to a tolerance and reach that optimum.
func TestSolveFloatFeasibleAfterLongRun(t *testing.T) {
	const p, rounds, n = 16, 8, 50000
	nv := rounds*p + 1
	alphas := []float64{1e-5, 1.12e-5, 1.7e-5, 2.1e-5, 2.1e-5, 3.53e-5, 3.53e-5, 3.53e-5,
		3.53e-5, 3.53e-5, 3.53e-5, 3.53e-5, 3.53e-5, 8.15e-5, 8.15e-5, 0}
	betas := []float64{0.004629, 0.009365, 0.004885, 0.016156, 0.016156, 0.009677, 0.009677,
		0.009677, 0.009677, 0.009677, 0.009677, 0.009677, 0.009677, 0.003976, 0.003976, 0.009288}
	prob := &FloatProblem{NumVars: nv, Objective: make([]float64, nv)}
	prob.Objective[nv-1] = 1
	eq := FloatConstraint{Rel: EQ, RHS: n, Coeffs: make([]float64, nv)}
	for v := 0; v < rounds*p; v++ {
		eq.Coeffs[v] = 1
	}
	prob.Constraints = append(prob.Constraints, eq)
	for r := 0; r < rounds; r++ {
		for i := 0; i < p; i++ {
			c := FloatConstraint{Rel: LE, Coeffs: make([]float64, nv)}
			for s := 0; s <= r; s++ {
				last := p
				if s == r {
					last = i + 1
				}
				for j := 0; j < last; j++ {
					c.Coeffs[s*p+j] += 200 * alphas[j]
				}
			}
			for s := r; s < rounds; s++ {
				c.Coeffs[s*p+i] += betas[i]
			}
			c.Coeffs[nv-1] = -1
			prob.Constraints = append(prob.Constraints, c)
		}
	}
	sol := solveFloatOK(t, prob)
	const tol = 1e-6
	for i, c := range prob.Constraints {
		d := -c.RHS
		for j, a := range c.Coeffs {
			d += a * sol.X[j]
		}
		if c.Rel != GE && d > tol*n || c.Rel != LE && d < -tol*n {
			t.Errorf("row %d (%v) misses its right-hand side by %g", i, c.Rel, d)
		}
	}
	if math.Abs(sol.Objective-96.3207253) > 1e-6 {
		t.Errorf("objective = %.10g, want the exact optimum 96.3207253", sol.Objective)
	}
}

// TestSolveFloatDuals holds the multipliers read off the final tableau
// to the dual of each random LP: strong duality against the exact
// solver's optimum, the reduced costs non-negative, and each
// multiplier's sign fixed by its row's relation. Rows mix LE, GE and
// EQ, and some right-hand sides are negative, so the rows the solver
// negates are covered.
func TestSolveFloatDuals(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	const tol = 1e-7
	optimal := 0
	for trial := 0; trial < 300; trial++ {
		nv := 1 + rng.Intn(6)
		fp := &FloatProblem{NumVars: nv, Objective: make([]float64, nv)}
		rp := &Problem{NumVars: nv, Objective: make([]*big.Rat, nv)}
		for j := 0; j < nv; j++ {
			c := int64(rng.Intn(11) - 5)
			fp.Objective[j] = float64(c)
			rp.Objective[j] = big.NewRat(c, 1)
		}
		add := func(coeffs []int64, rel Relation, rhs int64) {
			fc := FloatConstraint{Rel: rel, RHS: float64(rhs), Coeffs: make([]float64, nv)}
			rc := Constraint{Rel: rel, RHS: big.NewRat(rhs, 1), Coeffs: make([]*big.Rat, nv)}
			for j, v := range coeffs {
				fc.Coeffs[j] = float64(v)
				rc.Coeffs[j] = big.NewRat(v, 1)
			}
			fp.Constraints = append(fp.Constraints, fc)
			rp.Constraints = append(rp.Constraints, rc)
		}
		for i := 1 + rng.Intn(5); i > 0; i-- {
			coeffs := make([]int64, nv)
			for j := range coeffs {
				coeffs[j] = int64(rng.Intn(7) - 2)
			}
			add(coeffs, []Relation{LE, GE, EQ}[rng.Intn(3)], int64(rng.Intn(25)-5))
		}
		for j := 0; j < nv; j++ {
			coeffs := make([]int64, nv)
			coeffs[j] = 1
			add(coeffs, LE, 10)
		}
		exact, err := Solve(rp)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveFloat(fp)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Status != Optimal || sol.Status != Optimal {
			continue
		}
		optimal++
		if len(sol.Duals) != len(fp.Constraints) {
			t.Fatalf("trial %d: %d duals for %d constraints", trial, len(sol.Duals), len(fp.Constraints))
		}
		want, _ := exact.Objective.Float64()
		dualObj := 0.0
		reduced := append([]float64(nil), fp.Objective...)
		for i, c := range fp.Constraints {
			y := sol.Duals[i]
			dualObj += y * c.RHS
			for j, a := range c.Coeffs {
				reduced[j] -= y * a
			}
			if (c.Rel == LE && y > tol) || (c.Rel == GE && y < -tol) {
				t.Errorf("trial %d: row %d (%v) has dual %g of the wrong sign", trial, i, c.Rel, y)
			}
		}
		if math.Abs(dualObj-want) > tol*(1+math.Abs(want)) {
			t.Errorf("trial %d: dual objective %g, primal optimum %g", trial, dualObj, want)
		}
		for j, d := range reduced {
			if d < -tol {
				t.Errorf("trial %d: reduced cost of x%d is %g < 0", trial, j, d)
			}
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d of 300 random LPs were optimal; the test covers too little", optimal)
	}
}
