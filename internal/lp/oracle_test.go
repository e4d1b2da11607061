package lp

import (
	"errors"
	"fmt"
	"math/big"
)

// This file keeps the package's former production solver, a two-phase
// dense simplex over big.Rat with Bland's rule, as the reference Solve
// is held to: same status, same optimum, and on the Eq. (3) instances
// of the heuristic the same vertex. Apart from its entry point's name
// and its pivot count becoming a local (Solution no longer reports one),
// the code below is unchanged.

// OracleSolve exports the reference to the package's external tests.
var OracleSolve = oracleSolve

// oracleSolve runs the two-phase simplex method and returns the exact optimal
// solution, or a Solution with a non-Optimal status. The input problem
// is not modified.
func oracleSolve(p *Problem) (*Solution, error) {
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

	t := newTableau(p)
	sol := &Solution{}
	var pivots int

	// Phase 1: minimize the sum of artificial variables.
	if t.numArtificial > 0 {
		t.installPhase1Objective()
		if err := t.iterate(&pivots); err != nil {
			return nil, err
		}
		if t.objValue().Sign() != 0 {
			sol.Status = Infeasible
			return sol, nil
		}
		if err := t.driveOutArtificials(&pivots); err != nil {
			return nil, err
		}
	}

	// Phase 2: minimize the real objective.
	t.installPhase2Objective(p)
	if err := t.iterate(&pivots); err != nil {
		if errors.Is(err, errUnbounded) {
			sol.Status = Unbounded
			return sol, nil
		}
		return nil, err
	}

	sol.Status = Optimal
	sol.X = t.extract(p.NumVars)
	sol.Objective = new(big.Rat)
	for j := 0; j < len(p.Objective); j++ {
		if p.Objective[j] == nil {
			continue
		}
		term := new(big.Rat).Mul(p.Objective[j], sol.X[j])
		sol.Objective.Add(sol.Objective, term)
	}
	return sol, nil
}

// tableau is a dense simplex tableau in canonical form. Column layout:
// [structural | slack/surplus | artificial]. Row m is not stored; the
// objective row lives in obj / objConst.
type tableau struct {
	rows          int        // number of constraints
	cols          int        // total number of variables
	numStructural int        // structural variable count
	numArtificial int        // artificial variable count
	a             []*big.Rat // rows*cols coefficient matrix
	b             []*big.Rat // rows right-hand sides, kept >= 0
	obj           []*big.Rat // cols objective coefficients (reduced costs)
	objC          *big.Rat   // objective constant (negated objective value)
	basis         []int      // per-row basic variable index
	artificialLo  int        // first artificial column
	banArtificial bool       // phase 2: artificial columns may not enter
}

func rz() *big.Rat { return new(big.Rat) }

func (t *tableau) at(i, j int) *big.Rat { return t.a[i*t.cols+j] }

func newTableau(p *Problem) *tableau {
	rows := len(p.Constraints)
	// Count extra columns.
	slack := 0
	artificial := 0
	for _, c := range p.Constraints {
		neg := c.RHS.Sign() < 0
		rel := c.Rel
		if neg {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			slack++ // slack enters the basis directly
		case GE:
			slack++ // surplus
			artificial++
		case EQ:
			artificial++
		}
	}
	cols := p.NumVars + slack + artificial
	t := &tableau{
		rows:          rows,
		cols:          cols,
		numStructural: p.NumVars,
		numArtificial: artificial,
		a:             make([]*big.Rat, rows*cols),
		b:             make([]*big.Rat, rows),
		obj:           make([]*big.Rat, cols),
		objC:          rz(),
		basis:         make([]int, rows),
		artificialLo:  cols - artificial,
	}
	for i := range t.a {
		t.a[i] = rz()
	}
	for j := range t.obj {
		t.obj[j] = rz()
	}

	slackCol := p.NumVars
	artCol := t.artificialLo
	for i, c := range p.Constraints {
		neg := c.RHS.Sign() < 0
		sign := int64(1)
		if neg {
			sign = -1
		}
		s := new(big.Rat).SetInt64(sign)
		for j, coef := range c.Coeffs {
			if coef == nil {
				continue
			}
			t.at(i, j).Mul(coef, s)
		}
		t.b[i] = new(big.Rat).Mul(c.RHS, s)
		rel := c.Rel
		if neg {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			t.at(i, slackCol).SetInt64(1)
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.at(i, slackCol).SetInt64(-1) // surplus
			slackCol++
			t.at(i, artCol).SetInt64(1)
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.at(i, artCol).SetInt64(1)
			t.basis[i] = artCol
			artCol++
		}
	}
	return t
}

// installPhase1Objective sets the objective to the sum of artificial
// variables and canonicalizes it against the current basis.
func (t *tableau) installPhase1Objective() {
	for j := range t.obj {
		t.obj[j].SetInt64(0)
	}
	t.objC.SetInt64(0)
	for j := t.artificialLo; j < t.cols; j++ {
		t.obj[j].SetInt64(1)
	}
	t.canonicalize()
}

// installPhase2Objective sets the real objective, forbids artificial
// columns from re-entering, and canonicalizes.
func (t *tableau) installPhase2Objective(p *Problem) {
	t.banArtificial = true
	for j := range t.obj {
		t.obj[j].SetInt64(0)
	}
	t.objC.SetInt64(0)
	for j := 0; j < len(p.Objective); j++ {
		if p.Objective[j] != nil {
			t.obj[j].Set(p.Objective[j])
		}
	}
	t.canonicalize()
}

// canonicalize zeroes the reduced cost of every basic variable by row
// elimination on the objective row.
func (t *tableau) canonicalize() {
	for i, bv := range t.basis {
		coef := t.obj[bv]
		if coef.Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Set(coef)
		for j := 0; j < t.cols; j++ {
			if t.at(i, j).Sign() == 0 {
				continue
			}
			term := new(big.Rat).Mul(factor, t.at(i, j))
			t.obj[j].Sub(t.obj[j], term)
		}
		term := new(big.Rat).Mul(factor, t.b[i])
		t.objC.Sub(t.objC, term)
	}
}

// objValue returns the current objective value (minimization).
func (t *tableau) objValue() *big.Rat { return new(big.Rat).Neg(t.objC) }

// iterate pivots to optimality with Bland's rule. It returns
// errUnbounded when a negative reduced cost column has no positive
// entry.
func (t *tableau) iterate(pivots *int) error {
	for {
		// Bland: entering variable is the lowest-index negative
		// reduced cost. In phase 2, artificial columns are banned from
		// re-entering the basis (they exist only to find an initial
		// feasible point).
		enter := -1
		limit := t.cols
		if t.banArtificial {
			limit = t.artificialLo
		}
		for j := 0; j < limit; j++ {
			if t.obj[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil
		}
		// Ratio test, Bland ties broken by smallest basis variable.
		leave := -1
		var best *big.Rat
		for i := 0; i < t.rows; i++ {
			aie := t.at(i, enter)
			if aie.Sign() <= 0 {
				continue
			}
			ratio := new(big.Rat).Quo(t.b[i], aie)
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				best = ratio
			}
		}
		if leave < 0 {
			return errUnbounded
		}
		t.pivot(leave, enter)
		*pivots++
	}
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	p := new(big.Rat).Set(t.at(leave, enter))
	inv := new(big.Rat).Inv(p)
	// Scale the pivot row.
	for j := 0; j < t.cols; j++ {
		if t.at(leave, j).Sign() != 0 {
			t.at(leave, j).Mul(t.at(leave, j), inv)
		}
	}
	t.b[leave].Mul(t.b[leave], inv)
	// Eliminate the pivot column from other rows and the objective.
	for i := 0; i < t.rows; i++ {
		if i == leave {
			continue
		}
		f := t.at(i, enter)
		if f.Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Set(f)
		for j := 0; j < t.cols; j++ {
			if t.at(leave, j).Sign() == 0 {
				continue
			}
			term := new(big.Rat).Mul(factor, t.at(leave, j))
			t.at(i, j).Sub(t.at(i, j), term)
		}
		term := new(big.Rat).Mul(factor, t.b[leave])
		t.b[i].Sub(t.b[i], term)
	}
	if f := t.obj[enter]; f.Sign() != 0 {
		factor := new(big.Rat).Set(f)
		for j := 0; j < t.cols; j++ {
			if t.at(leave, j).Sign() == 0 {
				continue
			}
			term := new(big.Rat).Mul(factor, t.at(leave, j))
			t.obj[j].Sub(t.obj[j], term)
		}
		term := new(big.Rat).Mul(factor, t.b[leave])
		t.objC.Sub(t.objC, term)
	}
	t.basis[leave] = enter
}

// driveOutArtificials removes artificial variables that remain basic at
// level zero after phase 1, pivoting on any non-artificial column with
// a nonzero entry, or dropping redundant rows (by leaving the
// artificial basic at zero, which is harmless because phase 2 forbids
// it from taking a positive value: its row's b stays 0 and the column
// never re-enters since its reduced cost is canonicalized to zero and
// artificial costs are zero in phase 2).
func (t *tableau) driveOutArtificials(pivots *int) error {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artificialLo {
			continue
		}
		if t.b[i].Sign() != 0 {
			return errors.New("lp: internal error: artificial basic at nonzero level after feasible phase 1")
		}
		for j := 0; j < t.artificialLo; j++ {
			if t.at(i, j).Sign() != 0 {
				t.pivot(i, j)
				*pivots++
				break
			}
		}
	}
	return nil
}

// extract reads the first n variable values out of the basis.
func (t *tableau) extract(n int) []*big.Rat {
	x := make([]*big.Rat, n)
	for j := range x {
		x[j] = rz()
	}
	for i, bv := range t.basis {
		if bv < n {
			x[bv].Set(t.b[i])
		}
	}
	return x
}
