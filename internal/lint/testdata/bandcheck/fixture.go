// Package fixture exercises the bandcheck analyzer: interval proofs at
// solver entry points and zero-divisor guards on parameter divides.
// The fixture is loaded under a repro/internal/core/... import path so
// the divisor rule (scoped to the solver packages) is active.
package fixture

import (
	"repro/internal/core"
)

// Solver entry points must not receive constant negative item counts:
// the paper's algorithms are defined for n >= 0, and a negative
// constant is a guaranteed validation error at run time.
func negItems(procs []core.Processor, pl *core.Plan, eng *core.Engine) {
	_, _ = core.Algorithm1(procs, -1) // want "Algorithm1 called with a constant negative item count"
	_, _ = core.Algorithm2(procs, -3) // want "Algorithm2 called with a constant negative item count"
	_, _ = core.SolvePlan(procs, -7)  // want "SolvePlan called with a constant negative item count"
	_, _ = pl.Lookup(-1, 0)           // want "Plan.Lookup called with a constant negative item count"
	_, _ = pl.Resolve(-4, procs)      // want "Plan.Resolve called with a constant negative item count"
	_, _ = eng.Solve(procs, -2)       // want "Engine.Solve called with a constant negative item count"
	_ = core.Uniform(len(procs), -1)  // want "Uniform called with a constant negative item count"
}

// Zero, positive, and non-constant counts are fine; so is a negative
// constant in a non-count position (Plan.Lookup's second argument is
// a row index, checked at run time only when d is in range).
func okItems(procs []core.Processor, pl *core.Plan, eng *core.Engine, n int) {
	_, _ = core.Algorithm2(procs, 0)
	_, _ = core.SolvePlan(procs, 817101)
	_, _ = eng.Solve(procs, n)
	_, _ = pl.Resolve(n, procs)
	_, _ = pl.Lookup(n, 0)
}

// negativePhi: the item count joins two negative definitions — the
// interval [-3,-1] proves the precondition violation even though the
// argument is not a constant.
func negativePhi(procs []core.Processor, flag bool) {
	n := -3
	if flag {
		n = -1
	}
	_, _ = core.Algorithm1(procs, n) // want "provably negative item count"
}

// guardedNegative: inside the n < 0 branch the refined interval is
// (-inf, -1], so the call is provably outside the solver domain.
func guardedNegative(procs []core.Processor, n int) {
	if n < 0 {
		_, _ = core.Algorithm2(procs, n) // want "provably negative item count"
	}
}

// guardedClean is the mirrored shape: the early return leaves n >= 0
// dominating the call, and the negated guard proves it.
func guardedClean(procs []core.Processor, n int) {
	if n < 0 {
		return
	}
	_, _ = core.Algorithm1(procs, n)
}

// unknownCount: an unconstrained parameter could be anything — silent.
func unknownCount(procs []core.Processor, n int) {
	_, _ = core.Heuristic(procs, n)
}

// nilProcs: a zero-value slice declaration is provably nil, a
// guaranteed validation error in every solver.
func nilProcs(n int) {
	var procs []core.Processor
	if n < 0 {
		n = 0
	}
	_, _ = core.SolveLinear(procs, n) // want "provably nil processor slice"
}

// madeProcs is non-nil by construction: clean.
func madeProcs(n int) {
	procs := make([]core.Processor, 2)
	if n < 0 {
		n = 0
	}
	_, _ = core.SolveLinear(procs, n)
}

// unguardedShare divides by a parameter with no dominating zero
// check: the Eq. 4 band arithmetic would panic on p == 0.
func unguardedShare(n, p int) int {
	return n / p // want "division by parameter p is not guarded"
}

// unguardedRemainder is the modulus form of the same defect.
func unguardedRemainder(n, g int) int {
	return n % g // want "modulus by parameter g is not guarded"
}

// guardedShare mirrors core.Uniform: the early return proves p >= 1 at
// the divide.
func guardedShare(n, p int) int {
	if p <= 0 {
		return 0
	}
	return n / p
}

// positiveGuard uses the direct form of the same proof.
func positiveGuard(n, p int) int {
	if p > 0 {
		return n / p
	}
	return 0
}

// reassignedDivisor: the divide reads a local redefinition, not the
// caller's value — out of the parameter-contract rule's scope.
func reassignedDivisor(n, p int) int {
	p = 4
	return n / p
}
