package lp

import (
	"errors"
	"fmt"
	"math"
)

// This file is the package's one pivoting engine: a two-phase dense
// simplex in float64 with Bland's rule and epsilon tolerances. The
// multi-installment LP and the certificate use its answer as is; Solve
// takes its final basis and proves or repairs it in exact arithmetic
// (exact.go). The reference tableau in the tests pivots by the same
// rule over the same column order, so wherever the tolerances judge
// every sign as exact arithmetic would, both stop at the same vertex.
// A long pivot run can drift from the problem it solves; the final
// point is checked against the original rows, and the tableau rebuilt
// from them when it misses.

// FloatConstraint is a Constraint over float64 coefficients.
type FloatConstraint struct {
	// Coeffs are the per-variable coefficients (missing entries are
	// zero).
	Coeffs []float64
	// Rel is the constraint sense.
	Rel Relation
	// RHS is the right-hand side.
	RHS float64
}

// FloatProblem is a Problem over float64:
//
//	minimize sum_j Objective[j]*x_j  s.t.  Constraints, x >= 0.
type FloatProblem struct {
	// NumVars is the number of structural variables.
	NumVars int
	// Objective holds the cost coefficients.
	Objective []float64
	// Constraints are the linear constraints.
	Constraints []FloatConstraint
}

// FloatSolution is the result of SolveFloat.
type FloatSolution struct {
	// Status reports whether X and Objective are meaningful.
	Status Status
	// X is the (approximately) optimal assignment.
	X []float64
	// Objective is the objective value at X.
	Objective float64
	// Duals are the optimal simplex multipliers, one per constraint,
	// read off the final tableau: Objective = sum_i Duals[i]·RHS_i and
	// Objective[j] - sum_i Duals[i]·Coeffs_i[j] >= 0 for every
	// variable, with Duals[i] <= 0 on LE rows, >= 0 on GE rows and free
	// on EQ rows — all up to float tolerance. They are a float guess at
	// an optimal dual point; a caller that needs a proof must check the
	// point it derives from them.
	Duals []float64
	// Basis is the final basis, one column per constraint row, set
	// whatever the status: column j < NumVars is variable j, and
	// column NumVars+i is row i's own slack, surplus or artificial.
	Basis []int
}

const floatEps = 1e-9

// SolveFloat runs the two-phase simplex in float64 with Bland's rule
// (lowest-index entering column, lowest-index leaving variable among
// tied ratios); feasibility is declared when the phase-1 objective is
// within a scale-relative tolerance of zero.
func SolveFloat(p *FloatProblem) (*FloatSolution, error) {
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
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return nil, fmt.Errorf("lp: constraint %d has RHS %g", i, c.RHS)
		}
	}

	t := newFloatTableau(p)
	sol := &FloatSolution{}
	defer func() { sol.Basis = t.basisColumns(p.NumVars) }()

	if t.numArtificial > 0 {
		t.installPhase1()
		if err := t.iterate(); err != nil {
			return nil, err
		}
		scale := 1.0
		for _, b := range t.b {
			if math.Abs(b) > scale {
				scale = math.Abs(b)
			}
		}
		if -t.objC > floatEps*scale*float64(len(t.b)+1) {
			sol.Status = Infeasible
			return sol, nil
		}
		t.driveOutArtificials()
	}

	t.installPhase2(p)
	for pass := 0; ; pass++ {
		if err := t.iterate(); err != nil {
			if errors.Is(err, errUnbounded) {
				sol.Status = Unbounded
				return sol, nil
			}
			return nil, err
		}
		if pass == 2 || !t.drifted(p) {
			break
		}
		t.reinvert(p)
	}

	sol.Status = Optimal
	sol.X = t.extract(p.NumVars)
	sol.Duals = t.duals()
	for j := 0; j < len(p.Objective); j++ {
		sol.Objective += p.Objective[j] * sol.X[j]
	}
	return sol, nil
}

type floatTableau struct {
	rows          int
	cols          int
	numArtificial int
	a             []float64
	b             []float64
	obj           []float64
	objC          float64
	basis         []int
	// unit[i] is the column that started as row i's unit vector (its
	// slack, or its artificial), and sign[i] is -1 where row i was
	// negated to make its RHS non-negative.
	unit []int
	sign []float64
	// owner[j] is the row whose slack, surplus or artificial column j
	// is, and -1 for a structural column.
	owner         []int
	artificialLo  int
	banArtificial bool
}

func (t *floatTableau) at(i, j int) float64     { return t.a[i*t.cols+j] }
func (t *floatTableau) set(i, j int, v float64) { t.a[i*t.cols+j] = v }

func newFloatTableau(p *FloatProblem) *floatTableau {
	rows := len(p.Constraints)
	slack, artificial := 0, 0
	for _, c := range p.Constraints {
		rel := c.Rel
		if c.RHS < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			slack++
		case GE:
			slack++
			artificial++
		case EQ:
			artificial++
		}
	}
	cols := p.NumVars + slack + artificial
	t := &floatTableau{
		rows:          rows,
		cols:          cols,
		numArtificial: artificial,
		a:             make([]float64, rows*cols),
		b:             make([]float64, rows),
		obj:           make([]float64, cols),
		basis:         make([]int, rows),
		unit:          make([]int, rows),
		sign:          make([]float64, rows),
		owner:         make([]int, cols),
		artificialLo:  cols - artificial,
	}
	for j := range t.owner {
		t.owner[j] = -1
	}
	slackCol := p.NumVars
	artCol := t.artificialLo
	for i, c := range p.Constraints {
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j, coef := range c.Coeffs {
			t.set(i, j, coef*sign)
		}
		t.b[i] = c.RHS * sign
		t.sign[i] = sign
		switch rel {
		case LE:
			t.set(i, slackCol, 1)
			t.owner[slackCol] = i
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.set(i, slackCol, -1)
			t.owner[slackCol] = i
			slackCol++
			t.set(i, artCol, 1)
			t.owner[artCol] = i
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.set(i, artCol, 1)
			t.owner[artCol] = i
			t.basis[i] = artCol
			artCol++
		}
		t.unit[i] = t.basis[i]
	}
	return t
}

// drifted reports whether the tableau's point misses one of p's rows
// by more than the feasibility tolerance. Each pivot rounds the whole
// tableau, so a long pivot sequence can leave a point that satisfies
// the tableau but not the problem.
func (t *floatTableau) drifted(p *FloatProblem) bool {
	x := t.extract(p.NumVars)
	scale := 1.0
	for _, c := range p.Constraints {
		scale = math.Max(scale, math.Abs(c.RHS))
	}
	tol := floatEps * scale * float64(t.rows+1)
	for _, c := range p.Constraints {
		d := -c.RHS
		for j, a := range c.Coeffs {
			d += a * x[j]
		}
		if c.Rel != GE && d > tol || c.Rel != LE && d < -tol {
			return true
		}
	}
	return false
}

// reinvert rebuilds the tableau for the current basis from p's rows,
// shedding the accumulated rounding error: each basic column is
// pivoted in afresh, in the row where its entry is largest.
func (t *floatTableau) reinvert(p *FloatProblem) {
	fresh := newFloatTableau(p)
	done := make([]bool, t.rows)
	for _, col := range t.basis {
		best := -1
		for i := range done {
			if !done[i] && (best < 0 || math.Abs(fresh.at(i, col)) > math.Abs(fresh.at(best, col))) {
				best = i
			}
		}
		fresh.pivot(best, col)
		done[best] = true
	}
	fresh.installPhase2(p)
	*t = *fresh
}

func (t *floatTableau) installPhase1() {
	for j := range t.obj {
		t.obj[j] = 0
	}
	t.objC = 0
	for j := t.artificialLo; j < t.cols; j++ {
		t.obj[j] = 1
	}
	t.canonicalize()
}

func (t *floatTableau) installPhase2(p *FloatProblem) {
	t.banArtificial = true
	for j := range t.obj {
		t.obj[j] = 0
	}
	t.objC = 0
	copy(t.obj, p.Objective)
	t.canonicalize()
}

func (t *floatTableau) canonicalize() {
	for i, bv := range t.basis {
		coef := t.obj[bv]
		if coef == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.obj[j] -= coef * t.at(i, j)
		}
		t.objC -= coef * t.b[i]
	}
}

func (t *floatTableau) iterate() error {
	for {
		enter := -1
		limit := t.cols
		if t.banArtificial {
			limit = t.artificialLo
		}
		for j := 0; j < limit; j++ {
			if t.obj[j] < -floatEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil
		}
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.rows; i++ {
			aie := t.at(i, enter)
			if aie <= floatEps {
				continue
			}
			ratio := t.b[i] / aie
			if ratio < bestRatio-floatEps ||
				(ratio < bestRatio+floatEps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				leave = i
				if ratio < bestRatio {
					bestRatio = ratio
				}
			}
		}
		if leave < 0 {
			return errUnbounded
		}
		t.pivot(leave, enter)
	}
}

func (t *floatTableau) pivot(leave, enter int) {
	p := t.at(leave, enter)
	inv := 1 / p
	for j := 0; j < t.cols; j++ {
		t.set(leave, j, t.at(leave, j)*inv)
	}
	t.b[leave] *= inv
	for i := 0; i < t.rows; i++ {
		if i == leave {
			continue
		}
		f := t.at(i, enter)
		if f == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.set(i, j, t.at(i, j)-f*t.at(leave, j))
		}
		t.b[i] -= f * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -floatEps {
			t.b[i] = 0 // clean tiny negative residue
		}
	}
	if f := t.obj[enter]; f != 0 {
		for j := 0; j < t.cols; j++ {
			t.obj[j] -= f * t.at(leave, j)
		}
		t.objC -= f * t.b[leave]
	}
	t.basis[leave] = enter
}

func (t *floatTableau) driveOutArtificials() {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artificialLo {
			continue
		}
		for j := 0; j < t.artificialLo; j++ {
			if math.Abs(t.at(i, j)) > floatEps {
				t.pivot(i, j)
				break
			}
		}
	}
}

// duals reads the simplex multipliers off the phase-2 objective row.
// Row i's unit column has cost 0 and started as e_i, so its reduced
// cost is -y~_i, the multiplier of the sign-normalized row; the
// original row's multiplier is sign[i]·y~_i. Pivots keep updating the
// artificial columns in phase 2 (they are only barred from entering),
// so the reading holds for EQ and GE rows too.
func (t *floatTableau) duals() []float64 {
	y := make([]float64, t.rows)
	for i, col := range t.unit {
		y[i] = -t.sign[i] * t.obj[col]
	}
	return y
}

// basisColumns renumbers the basis into FloatSolution.Basis's layout:
// a row's slack or surplus and its artificial both become that row's
// own column (they are ±e_i, so at most one of them is basic).
func (t *floatTableau) basisColumns(n int) []int {
	cols := make([]int, t.rows)
	for i, j := range t.basis {
		cols[i] = j
		if r := t.owner[j]; r >= 0 {
			cols[i] = n + r
		}
	}
	return cols
}

func (t *floatTableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv < n {
			v := t.b[i]
			if v < 0 {
				v = 0 // numerical residue
			}
			x[bv] = v
		}
	}
	return x
}
