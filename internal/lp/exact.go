package lp

import (
	"math/big"
	"slices"
)

// exact is a Problem scaled to integers, in the column layout of
// FloatSolution.Basis: column j < n is structural variable j, and
// column n+i is row i's unit column, which is its slack (+e_i) on an
// LE row, its surplus (-e_i) on a GE row, and on an EQ row an
// artificial (+e_i) that a feasible point holds at zero. Column n+m is
// the phase-1 artificial, which exists only when a starting basis is
// infeasible, and column n+m+1 the right-hand side.
//
// Each row is scaled by the least common multiple of its denominators,
// which keeps its solutions, and the objective by that of its own,
// which keeps its minimizers; so every basis solve runs on big.Int.
type exact struct {
	n, m int
	a    [][]*big.Int // m rows of n coefficients, then the right-hand side
	rel  []Relation
	c    []*big.Int // the objective, n entries
	// phase1 prices the artificials at 1 and everything else at 0; h
	// is the phase-1 artificial's column once it exists.
	phase1 bool
	h      []*big.Int
}

var (
	zero     = big.NewInt(0)
	one      = big.NewInt(1)
	minusOne = big.NewInt(-1)
)

func newExact(p *Problem) *exact {
	e := &exact{n: p.NumVars, m: len(p.Constraints)}
	obj := make([]*big.Rat, e.n)
	copy(obj, p.Objective)
	e.c, _ = Integers(obj)
	for _, c := range p.Constraints {
		row := make([]*big.Rat, e.n+1)
		copy(row, c.Coeffs)
		row[e.n] = c.RHS
		a, _ := Integers(row)
		e.a = append(e.a, a)
		e.rel = append(e.rel, c.Rel)
	}
	return e
}

// Integers scales v (nil entries are zero) by the least common
// multiple of its denominators, and returns the scaled integers and
// that multiple.
func Integers(v []*big.Rat) ([]*big.Int, *big.Int) {
	l := big.NewInt(1)
	var g big.Int
	for _, r := range v {
		if r != nil && !r.IsInt() {
			g.GCD(nil, nil, l, r.Denom())
			l.Mul(l, g.Quo(r.Denom(), &g))
		}
	}
	out := make([]*big.Int, len(v))
	for j, r := range v {
		out[j] = new(big.Int)
		if r != nil {
			out[j].Mul(out[j].Quo(l, r.Denom()), r.Num())
		}
	}
	return out, l
}

// entry returns row r of column j. Callers must not modify it.
func (e *exact) entry(r, j int) *big.Int {
	switch {
	case j < e.n:
		return e.a[r][j]
	case j == e.n+e.m:
		return e.h[r]
	case j == e.n+e.m+1:
		return e.a[r][e.n]
	case j-e.n != r:
		return zero
	case e.rel[r] == GE:
		return minusOne
	}
	return one
}

// artificial reports whether column j is an EQ row's unit column or
// the phase-1 column. Artificials never enter the basis.
func (e *exact) artificial(j int) bool {
	return j >= e.n && (j == e.n+e.m || e.rel[j-e.n] == EQ)
}

func (e *exact) cost(j int) *big.Int {
	switch {
	case e.phase1 && e.artificial(j):
		return one
	case !e.phase1 && j < e.n:
		return e.c[j]
	}
	return zero
}

// solve solves B·x = column j for each j in cols, where B's k-th
// column is column basis[k]. It returns d = |det B| and the integer
// numerators d·x, or ok = false when B is singular.
func (e *exact) solve(basis []int, cols ...int) (*big.Int, [][]*big.Int, bool) {
	aug := make([][]*big.Int, e.m)
	for r := range aug {
		for _, j := range slices.Concat(basis, cols) {
			aug[r] = append(aug[r], new(big.Int).Set(e.entry(r, j)))
		}
	}
	return fracFree(aug, len(cols))
}

// dual solves Bᵀ·y = v, v[k] belonging to basis[k], and returns
// d = |det B| and the numerators d·y, one per row. B is nonsingular.
func (e *exact) dual(basis []int, v []*big.Int) (*big.Int, []*big.Int) {
	aug := make([][]*big.Int, e.m)
	for k, j := range basis {
		for r := 0; r < e.m; r++ {
			aug[k] = append(aug[k], new(big.Int).Set(e.entry(r, j)))
		}
		aug[k] = append(aug[k], new(big.Int).Set(v[k]))
	}
	d, y, _ := fracFree(aug, 1)
	return d, y[0]
}

// dot returns y·(column j).
func (e *exact) dot(y []*big.Int, j int) *big.Int {
	s := new(big.Int)
	var t big.Int
	for r, yr := range y {
		if a := e.entry(r, j); a.Sign() != 0 {
			s.Add(s, t.Mul(yr, a))
		}
	}
	return s
}

// fracFree solves M·X = R for aug = [M | R], M square and R k columns
// wide, by Bareiss's fraction-free elimination and an integer
// back-substitution. It returns d = |det M| and, per column of R, the
// numerators d·x, which Cramer's rule makes integers; ok is false when
// M is singular. aug is overwritten.
func fracFree(aug [][]*big.Int, k int) (*big.Int, [][]*big.Int, bool) {
	m := len(aug)
	prev := big.NewInt(1)
	var t big.Int
	for i := 0; i < m; i++ {
		p := i
		for p < m && aug[p][i].Sign() == 0 {
			p++
		}
		if p == m {
			return nil, nil, false
		}
		aug[i], aug[p] = aug[p], aug[i]
		piv := aug[i]
		for _, row := range aug[i+1:] {
			for c := i + 1; c < m+k; c++ {
				row[c].Mul(row[c], piv[i])
				row[c].Sub(row[c], t.Mul(row[i], piv[c]))
				row[c].Quo(row[c], prev)
			}
		}
		prev = piv[i]
	}
	// Row i now reads piv_i·x_i + Σ_{j>i} aug[i][j]·x_j = aug[i][m+c],
	// and prev = ±det M, so prev·x_i is an integer and each quotient
	// below is exact.
	x := make([][]*big.Int, k)
	for c := range x {
		x[c] = make([]*big.Int, m)
		for i := m - 1; i >= 0; i-- {
			v := new(big.Int).Mul(prev, aug[i][m+c])
			for j := i + 1; j < m; j++ {
				v.Sub(v, t.Mul(aug[i][j], x[c][j]))
			}
			x[c][i] = v.Quo(v, aug[i][i])
		}
		if prev.Sign() < 0 {
			for _, v := range x[c] {
				v.Neg(v)
			}
		}
	}
	return new(big.Int).Abs(prev), x, true
}

// solveFrom runs the exact simplex from basis, one column per row (nil,
// or a singular basis, means the unit basis): phase 1 when the basis is
// infeasible, then Bland steps until every reduced cost is
// non-negative. It returns the status and, when Optimal, the n
// structural values. An optimal starting basis costs one primal and
// one dual solve.
func (e *exact) solveFrom(basis []int) (Status, []*big.Rat) {
	rhs := e.n + e.m + 1
	if len(basis) != e.m {
		basis = e.unitBasis()
	}
	d, x, ok := e.solve(basis, rhs)
	if !ok {
		basis = e.unitBasis()
		d, x, _ = e.solve(basis, rhs)
	}
	start := slices.Clone(basis)
	for k, j := range basis {
		if x[0][k].Sign() < 0 || e.artificial(j) && x[0][k].Sign() > 0 {
			if !e.feasible(basis, x[0]) {
				return Infeasible, nil
			}
			break
		}
	}
	if !e.bland(basis) {
		return Unbounded, nil
	}
	if !slices.Equal(start, basis) {
		d, x, _ = e.solve(basis, rhs)
	}
	vals := make([]*big.Rat, e.n)
	for j := range vals {
		vals[j] = new(big.Rat)
	}
	for k, j := range basis {
		if j < e.n {
			vals[j].SetFrac(x[0][k], d)
		}
	}
	return Optimal, vals
}

func (e *exact) unitBasis() []int {
	basis := make([]int, e.m)
	for i := range basis {
		basis[i] = e.n + i
	}
	return basis
}

// feasible is phase 1: from basis, whose values d·x have a negative
// entry or a positive artificial, it minimizes the sum of the
// artificials and reports whether that minimum is zero. A negative
// entry brings in the phase-1 column, h = -B·1: entering it in the row
// of the most negative value lifts every basic value by that much, so
// the basis turns feasible. If h is still basic at the end, it stays,
// held at zero like the EQ rows' artificials.
func (e *exact) feasible(basis []int, x []*big.Int) bool {
	e.phase1 = true
	defer func() { e.phase1 = false }()
	worst := -1
	for k := range basis {
		if x[k].Sign() < 0 && (worst < 0 || x[k].Cmp(x[worst]) < 0) {
			worst = k
		}
	}
	if worst >= 0 {
		e.h = make([]*big.Int, e.m)
		for r := range e.h {
			e.h[r] = new(big.Int)
			for _, j := range basis {
				e.h[r].Sub(e.h[r], e.entry(r, j))
			}
		}
		basis[worst] = e.n + e.m
	}
	e.bland(basis)
	_, v, _ := e.solve(basis, e.n+e.m+1)
	for k, j := range basis {
		if e.artificial(j) && v[0][k].Sign() > 0 {
			return false
		}
	}
	return true
}

// bland pivots with Bland's rule until no column prices out: the
// entering column is the lowest-indexed non-artificial with a negative
// reduced cost, and the leaving row the one with the least ratio, ties
// going to the lowest-indexed basic column. Outside phase 1 a basic
// artificial is held at zero, so it leaves at ratio 0 whenever the
// entering column moves it. It returns false when the entering column
// meets no bound: the LP is unbounded.
func (e *exact) bland(basis []int) bool {
	costs := make([]*big.Int, e.m)
	for {
		for k, j := range basis {
			costs[k] = e.cost(j)
		}
		d, y := e.dual(basis, costs)
		enter := -1
		var rc big.Int
		for j := 0; j < e.n+e.m && enter < 0; j++ {
			if !slices.Contains(basis, j) && !e.artificial(j) && rc.Mul(d, e.cost(j)).Cmp(e.dot(y, j)) < 0 {
				enter = j
			}
		}
		if enter < 0 {
			return true
		}
		_, xw, _ := e.solve(basis, e.n+e.m+1, enter)
		x, w := xw[0], xw[1]
		leave := -1
		var best *big.Rat
		for k, j := range basis {
			held := !e.phase1 && e.artificial(j)
			if w[k].Sign() <= 0 && !(held && w[k].Sign() != 0) {
				continue
			}
			// Held rows have x_k = 0, so |w_k| gives them ratio 0.
			ratio := new(big.Rat).SetFrac(x[k], new(big.Int).Abs(w[k]))
			if leave < 0 || ratio.Cmp(best) < 0 || ratio.Cmp(best) == 0 && j < basis[leave] {
				leave, best = k, ratio
			}
		}
		if leave < 0 {
			return false
		}
		basis[leave] = enter
	}
}
