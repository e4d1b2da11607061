package lp

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// TestSolveMatchesOracle holds Solve to the reference tableau on random
// LPs that mix LE, GE and EQ rows, negative right-hand sides, duplicated
// rows and fractional coefficients: the same status, the same optimum,
// and a point that satisfies every constraint exactly. Without box rows
// many draws are infeasible or unbounded. The exact simplex is also run
// from the unit basis, as when the float solve fails, which takes it
// through phase 1 and its Bland steps on nearly every draw.
func TestSolveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	count := map[Status]int{}
	for trial := 0; trial < 600; trial++ {
		nv := 1 + rng.Intn(5)
		p := &Problem{NumVars: nv, Objective: make([]*big.Rat, nv)}
		for j := range p.Objective {
			p.Objective[j] = r(int64(rng.Intn(11)-5), int64(1+rng.Intn(3)))
		}
		for i := 1 + rng.Intn(5); i > 0; i-- {
			c := Constraint{Rel: []Relation{LE, GE, EQ}[rng.Intn(3)], RHS: r(int64(rng.Intn(25)-5), int64(1+rng.Intn(4)))}
			c.Coeffs = make([]*big.Rat, nv)
			for j := range c.Coeffs {
				c.Coeffs[j] = r(int64(rng.Intn(7)-2), int64(1+rng.Intn(4)))
			}
			p.Constraints = append(p.Constraints, c)
			if rng.Intn(4) == 0 {
				p.Constraints = append(p.Constraints, c)
			}
		}
		if rng.Intn(2) == 0 {
			for j := 0; j < nv; j++ {
				c := Constraint{Rel: LE, RHS: ri(10), Coeffs: make([]*big.Rat, nv)}
				c.Coeffs[j] = ri(1)
				p.Constraints = append(p.Constraints, c)
			}
		}
		want, err := oracleSolve(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		count[got.Status]++
		status, x := newExact(p).solveFrom(nil)
		for _, s := range []struct {
			name   string
			status Status
			x      []*big.Rat
		}{{"Solve", got.Status, got.X}, {"from the unit basis", status, x}} {
			if s.status != want.Status {
				t.Fatalf("trial %d: %s: status %v, oracle %v", trial, s.name, s.status, want.Status)
			}
			if s.status != Optimal {
				continue
			}
			obj := new(big.Rat)
			for j, c := range p.Objective {
				obj.Add(obj, new(big.Rat).Mul(c, s.x[j]))
			}
			if obj.Cmp(want.Objective) != 0 {
				t.Fatalf("trial %d: %s: objective %s, oracle %s", trial, s.name, obj.RatString(), want.Objective.RatString())
			}
			if !feasible(p, s.x) {
				t.Fatalf("trial %d: %s: solution %v infeasible", trial, s.name, s.x)
			}
		}
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded} {
		if count[s] < 50 {
			t.Errorf("only %d of 600 draws were %v; the test covers too little", count[s], s)
		}
	}
}

// eq3Example is Eq. (3) on four affine processors with distinct
// slopes and fixed terms, whose optimum is unique and gives every
// processor a positive share. Variables 0-3 are the shares, 4 is T;
// row 0 is Σ n_i = n and row i+1 processor i's finish time.
func eq3Example() *Problem {
	comm := []float64{0.25, 0.5, 0.125, 0}
	comp := []float64{2, 1.5, 3, 2.5}
	fixed := []float64{0.5, 0.25, 1, 0.75}
	const p, n = 4, 100
	prob := &Problem{NumVars: p + 1, Objective: []*big.Rat{nil, nil, nil, nil, ri(1)}}
	eq := Constraint{Rel: EQ, RHS: ri(n), Coeffs: []*big.Rat{ri(1), ri(1), ri(1), ri(1)}}
	prob.Constraints = append(prob.Constraints, eq)
	fc := 0.0
	for i := 0; i < p; i++ {
		fc += fixed[i]
		c := Constraint{Rel: LE, RHS: new(big.Rat).SetFloat64(-fc), Coeffs: make([]*big.Rat, p+1)}
		for j := 0; j <= i; j++ {
			c.Coeffs[j] = new(big.Rat).SetFloat64(comm[j])
		}
		c.Coeffs[i] = new(big.Rat).Add(c.Coeffs[i], new(big.Rat).SetFloat64(comp[i]))
		c.Coeffs[p] = ri(-1)
		prob.Constraints = append(prob.Constraints, c)
	}
	return prob
}

// TestExactStepsFromPerturbedBasis hands the exact simplex starting
// bases other than the optimal one the float solver finds, and holds
// each answer to the reference tableau's vertex:
//   - a feasible but suboptimal basis (everything on processor 0, T
//     tight on its row, the other rows slack) takes phase-2 Bland steps;
//   - an infeasible basis (everything on processor 3, T tight on
//     processor 0's row, so processor 3's slack is negative) brings in
//     the one phase-1 column;
//   - a basis whose only fault is a positive EQ artificial (T tight on
//     the last row, every share zero) runs phase 1 without that column;
//   - the unit basis, which has both faults, and a singular basis,
//     which falls back to the unit basis.
func TestExactStepsFromPerturbedBasis(t *testing.T) {
	prob := eq3Example()
	want, err := oracleSolve(prob)
	if err != nil || want.Status != Optimal {
		t.Fatalf("oracle: %v, %v", want, err)
	}
	for i := 0; i < 4; i++ {
		if want.X[i].Sign() <= 0 {
			t.Fatalf("example's share %d is %s; it must be positive for a unique vertex", i, want.X[i].RatString())
		}
	}
	const n = 5 // structural columns; row i's unit column is n+i
	for _, c := range []struct {
		name string
		// negative and artificial say whether the basis has a negative
		// value, and a positive artificial; nil basis values mean the
		// basis is singular.
		basis                []int
		negative, artificial bool
	}{
		{"suboptimal", []int{0, 4, n + 2, n + 3, n + 4}, false, false},
		{"infeasible", []int{3, 4, n + 2, n + 3, n + 4}, true, false},
		{"artificial", []int{4, n, n + 1, n + 2, n + 3}, false, true},
		{"unit", []int{n, n + 1, n + 2, n + 3, n + 4}, true, true},
		{"singular", []int{4, n + 1, n + 2, n + 3, n + 4}, false, false},
	} {
		e := newExact(prob)
		_, x, ok := e.solve(c.basis, e.n+e.m+1)
		if ok == (c.name == "singular") {
			t.Fatalf("%s: basis nonsingular = %v", c.name, ok)
		}
		negative, artificial := false, false
		for k, j := range c.basis {
			negative = negative || ok && x[0][k].Sign() < 0
			artificial = artificial || ok && e.artificial(j) && x[0][k].Sign() > 0
		}
		if negative != c.negative || artificial != c.artificial {
			t.Fatalf("%s: negative value %v, positive artificial %v", c.name, negative, artificial)
		}
		if c.name == "suboptimal" {
			if b := slices.Clone(c.basis); e.bland(b) && slices.Equal(b, c.basis) {
				t.Fatalf("%s: basis is already optimal", c.name)
			}
		}
		status, vals := e.solveFrom(append([]int(nil), c.basis...))
		if status != Optimal {
			t.Fatalf("%s: status %v", c.name, status)
		}
		for j := range vals {
			if vals[j].Cmp(want.X[j]) != 0 {
				t.Fatalf("%s: x%d = %s, oracle %s", c.name, j, vals[j].RatString(), want.X[j].RatString())
			}
		}
	}
}
